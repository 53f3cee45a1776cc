import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import toeplitz as scipy_toeplitz
from scipy.special import gammaln, gammasgn

import siolab.cli as cli
import siolab.toeplitz as toeplitz
from siolab.cauchy import riesz_projections
from siolab.corpus import random_trig_coefficients, random_trig_polynomial
from siolab.curves import curve_from_name, trig_polynomial
from siolab.exponents import exponent_constant
from siolab.spaces import norm_value
from siolab.toeplitz import (
    Symbol,
    dichotomy_probe,
    finite_section,
    singular_power_coefficients,
    symbol_from_preset,
)


def mode(curve, k):
    return curve.nodes**k


def flipped(a):
    """The flipped symbol a~_k = a_{-k}, whose T sections are a's companion sections."""
    return Symbol(a.coefficients[::-1], a.name, a.exact_band)


# ------------------------------------------------------------------- symbols

def test_symbol_coefficients_match_closed_forms(circle1024):
    # exact coefficients: the FFT of node samples left imaginary parts of 5e-17,
    # which made the cos sections complex
    cos = symbol_from_preset("cos")
    assert np.array_equal(cos.coefficient_window(-1, 1), [0.5, 0.0, 0.5])
    oc2 = symbol_from_preset("one-plus-cos2")
    assert np.array_equal(oc2.coefficient_window(-2, 2), [0.25, 0.0, 1.5, 0.0, 0.25])
    for a in (cos, oc2):
        assert finite_section(a, 12, 8).dtype == np.float64
        assert finite_section(flipped(a), 12, 8).dtype == np.float64


@pytest.mark.parametrize("spec", ["one", "cos", "one-plus-cos2"])
def test_sampled_presets_take_any_curve(ellipse4096, spec):
    # the value functions and the exact coefficients describe the same symbol
    a = symbol_from_preset(spec)
    synthesized = trig_polynomial(ellipse4096, a.coefficients)
    assert a.exact_band
    assert np.abs(a.values(ellipse4096) - synthesized).max() < 1e-14


def test_symbol_rejects_nonfinite_coefficients(circle1024):
    for bad in (np.inf, np.nan, complex(1.0, -np.inf)):
        with pytest.raises(ValueError, match="non-finite Fourier coefficients"):
            Symbol(np.array([1.0, bad, 0.5]))
    for bad in ([1.0, 2.0], [[1.0]]):
        with pytest.raises(ValueError, match="symmetric mode range"):
            Symbol(bad)
    # values may be infinite: |t - 1|^s is at node 0, its coefficients are not
    a = symbol_from_preset("singular:-0.3", degree=40)
    assert np.isinf(a.values(circle1024)[0]) and np.all(np.isfinite(a.coefficients))


@pytest.fixture(scope="module")
def coefficient_symbols(tmp_path_factory):
    """One symbol of each kind, built once and sampled on every curve."""
    csv = tmp_path_factory.mktemp("symbol") / "a.csv"
    csv.write_text("-2,0.5,0.25\n0,1.0,0.0\n3,-1.5,2.0\n")
    specs = ["one", "cos", "one-plus-cos2", "singular:-0.3", "monomial:0", "monomial:-2",
             "trig-random:12"]
    return [*(symbol_from_preset(spec, degree=40, seed=3) for spec in specs),
            cli._symbol(str(csv), 0, 0)]


@pytest.mark.parametrize("curve_name", ["circle1024", "ellipse4096"])
def test_coefficient_symbols_take_the_node_angles(request, coefficient_symbols, curve_name):
    # the sampled presets read the node angles, and so must monomial:k and
    # trig-random; on the ellipse uniform angles were 0.34 off for monomial:1
    curve = request.getfixturevalue(curve_name)
    theta = np.angle(curve.nodes)
    monomial = lambda k: symbol_from_preset(f"monomial:{k}").values(curve)
    assert np.abs(monomial(1) - np.exp(1j * theta)).max() < 1e-15
    assert np.abs(monomial(-3) - np.exp(-3j * theta)).max() < 1e-14
    c = np.array([0.5, 0.0, 1.0, 0.0, 0.5])  # 1 + cos(2 theta)
    assert np.abs(Symbol(c).values(curve) - (1.0 + np.cos(2.0 * theta))).max() < 1e-14
    # the same symbols on every curve: bitwise their closed form or
    # trig_polynomial of their a_k at that curve's node angles
    with np.errstate(divide="ignore"):
        closed = {"one": np.ones(curve.n_nodes), "cos": np.cos(theta),
                  "one-plus-cos2": 1.0 + np.cos(theta) ** 2,
                  "singular:-0.3": np.abs(np.exp(1j * theta) - 1.0) ** -0.3}
    for a in coefficient_symbols:
        want = closed[a.name] if a.name in closed else trig_polynomial(curve, a.coefficients)
        values = a.values(curve)
        assert values.dtype == complex and np.array_equal(values, want), a.name


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "square", "perturbed-circle:0.3,12"])
@pytest.mark.parametrize("n", [512, 1000, 4096])
def test_symbols_and_the_corpus_read_one_trig_table(name, n):
    # trig-random:d is bitwise the corpus polynomial drawn from the same seed,
    # and both are trig_polynomial of its coefficients; monomial:k is bitwise
    # the sum over exp(i k theta) that it read before
    curve = curve_from_name(name, n)
    for d in (1, 3, 8, 12):
        values = symbol_from_preset(f"trig-random:{d}", seed=d).values(curve)
        assert np.array_equal(values, trig_polynomial(
            curve, random_trig_coefficients(np.random.default_rng(d), d)))
        assert np.array_equal(values, random_trig_polynomial(curve, np.random.default_rng(d), d))
    theta = np.angle(curve.nodes)
    for k in (-7, 0, 1, 40):
        c = np.zeros(2 * abs(k) + 1, dtype=complex)
        c[abs(k) + k] = 1.0
        old = np.exp(1j * np.outer(theta, np.arange(-abs(k), abs(k) + 1))) @ c
        assert np.array_equal(symbol_from_preset(f"monomial:{k}").values(curve), old)


def test_a_degree_300_symbol_never_holds_its_whole_trig_table():
    # the (4096, 601) table exp(i k theta) took 37.7 MiB; a block of nodes at
    # a time takes about 1 MiB
    curve = curve_from_name("circle", 4096)
    rng = np.random.default_rng(3)
    a = Symbol(rng.standard_normal(601) + 1j * rng.standard_normal(601))
    tracemalloc.start()
    try:
        a.values(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("s, K, bound", [(-0.25, 300, 1e-11), (-0.05, 2000, 1e-10)])
def test_singular_coefficients_against_gamma_oracle(s, K, bound):
    # independent oracle: (-1)^k Gamma(1+s) / (Gamma(1+s/2+k) Gamma(1+s/2-k)),
    # cross-checked against adaptive quadrature of the defining integral
    c = singular_power_coefficients(s, K)
    k = np.arange(K + 1)
    ln = gammaln(1 + s) - gammaln(1 + s / 2 + k) - gammaln(1 + s / 2 - k)
    oracle = (-1.0) ** k * gammasgn(1 + s / 2 - k) * np.exp(ln)
    rel = np.abs(c[K:].real - oracle) / np.abs(oracle)
    assert rel.max() < bound
    assert np.abs(c - c[::-1]).max() == 0.0  # real even symbol
    # spot check the k = 0 coefficient by adaptive quadrature
    mean, err = quad(lambda phi: (2 * np.sin(phi / 2)) ** s, 0, np.pi, points=[0])
    assert c[K].real == pytest.approx(mean / np.pi, rel=1e-9)


def test_singular_exponent_validation():
    with pytest.raises(ValueError):
        singular_power_coefficients(0.5, 10)
    with pytest.raises(ValueError):
        singular_power_coefficients(-1.0, 10)


# ------------------------------------------------------------------ sections

def test_shift_section_is_subdiagonal(circle1024):
    a = symbol_from_preset("monomial:1")
    M = finite_section(a, 4, 4)
    assert np.array_equal(M, np.diag(np.ones(3), -1))


def test_tridiagonal_section(circle1024):
    a = Symbol(np.array([1.0, 2.0, 1.0], dtype=complex))
    M = finite_section(a, 3, 3).real
    assert np.array_equal(M, np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))


def test_real_symbol_gives_hermitian_square_section(circle1024):
    a = symbol_from_preset("singular:-0.25", degree=64)
    M = finite_section(a, 32, 32)
    assert np.abs(M - M.conj().T).max() < 1e-14


def test_section_constant_diagonals(circle1024):
    a = symbol_from_preset("trig-random:6", seed=8)
    M = finite_section(a, 9, 5)
    for d in range(-4, 9):
        diag = np.diagonal(M, -d)
        assert np.abs(diag - diag[0]).max() < 1e-15


def test_section_degree_validation(circle1024):
    a = symbol_from_preset("singular:-0.25", degree=50)
    with pytest.raises(ValueError, match="degree"):
        finite_section(a, 64, 64)
    trig = symbol_from_preset("monomial:2")
    finite_section(trig, 64, 64)  # exact band: any size allowed


def test_companion_reflects_coefficients(circle1024):
    a = symbol_from_preset("trig-random:3", seed=9)
    T = finite_section(a, 6, 6)
    C = finite_section(flipped(a), 6, 6)
    assert np.abs(C - T.T).max() < 1e-15


def test_section_is_real_exactly_when_its_coefficients_are(circle1024):
    cases = {
        "monomial:1": symbol_from_preset("monomial:1"),
        "singular:-0.3": symbol_from_preset("singular:-0.3", degree=40),
        "real array": Symbol(np.array([0.5, -1.0, 3.0, 0.25, 2.0])),
        "trig-random:3": symbol_from_preset("trig-random:3", seed=10),
    }
    j_minus_k = np.subtract.outer(np.arange(19), np.arange(12))
    for name, a in cases.items():
        real = not a.coefficients.imag.any()
        assert real == (name != "trig-random:3")
        window = a.coefficient_window(-18, 18)
        for which, b, sign in (("T", a, 1), ("companion", flipped(a), -1)):
            M = finite_section(b, 19, 12)
            assert M.dtype == (np.float64 if real else np.complex128), (name, which)
            promoted = window[sign * j_minus_k + 18]
            assert np.array_equal(M, promoted), (name, which)


# ----------------------------------------------------------------- svd probes

def numerical_kernel(M):
    return toeplitz._numerical_kernel(toeplitz._singular_values(M))


def test_kernel_of_square_shift(circle1024):
    a = Symbol(np.array([0, 0, 1], dtype=complex))
    dim, sigma_min = numerical_kernel(finite_section(a, 8, 8))
    assert dim == 1
    assert sigma_min == pytest.approx(0.0, abs=1e-15)


def test_tall_shift_has_orthonormal_columns(circle1024):
    a = Symbol(np.array([0, 0, 1], dtype=complex))
    dim, sigma_min = numerical_kernel(finite_section(a, 9, 8))
    assert dim == 0
    assert sigma_min == pytest.approx(1.0, rel=1e-14)


def test_random_full_rank_matrix(rng):
    M = rng.standard_normal((50, 50))
    dim, sigma_min = numerical_kernel(M)
    svals = np.linalg.svd(M, compute_uv=False)  # direct oracle
    assert dim == int(np.count_nonzero(svals < 1e-8 * svals[0])) == 0
    assert sigma_min == svals[-1]


def test_section_rejects_empty_shape(circle1024):
    # no empty section reaches an SVD
    a = symbol_from_preset("cos")
    for m, n in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="positive"):
            finite_section(a, m, n)


# ------------------------------------------------------ sections against S

def test_matrix_apply_consistency(circle1024):
    a = symbol_from_preset("trig-random:4", seed=10)
    av, n = a.values(circle1024), 8
    # T(a) f = P(a f) and the companion g -> Q(a g), with P and Q from S
    sec = finite_section(a, n, n)
    for col in range(n):
        out = riesz_projections(circle1024, av * mode(circle1024, col))[0]
        spectrum = np.fft.fft(out) / out.size
        got = spectrum[:n]
        assert np.abs(got - sec[:, col]).max() < 1e-10
    csec = finite_section(flipped(a), n, n)
    for col in range(n):
        out = riesz_projections(circle1024, av * mode(circle1024, -(col + 1)))[1]
        spectrum = np.fft.fft(out) / out.size
        got = spectrum[[-(row + 1) for row in range(n)]]
        assert np.abs(got - csec[:, col]).max() < 1e-10


def test_linearity_of_sections(circle1024):
    # trig-random:4 and then trig-random:3 drawn from one generator
    rng = np.random.default_rng(12)
    a, b = (Symbol(rng.standard_normal(2 * d + 1) + 1j * rng.standard_normal(2 * d + 1))
            for d in (4, 3))
    alpha, beta = 1.7 - 0.3j, -0.4 + 2.2j
    combo = Symbol(alpha * a.coefficient_window(-8, 8) + beta * b.coefficient_window(-8, 8))
    lhs = finite_section(combo, 6, 6)
    rhs = alpha * finite_section(a, 6, 6) + beta * finite_section(b, 6, 6)
    assert np.abs(lhs - rhs).max() < 1e-12


# ------------------------------------------------------------ block identities

@pytest.mark.parametrize("curve_name, spec, N, tol", [
    ("circle1024", "one", 16, 1e-12),
    ("circle4096", "trig-random:8", 64, 1e-10),
    ("ellipse4096", "1+0.6cos", 16, 1e-3),
], ids=["circle-one", "circle-trig-random", "ellipse"])
def test_block_identities(request, block_residuals, curve_name, spec, N, tol):
    curve = request.getfixturevalue(curve_name)
    if curve.is_unit_circle:
        a = symbol_from_preset(spec, seed=13)
    else:
        # the trig polynomial 1 + 0.6 cos(theta) sampled on the ellipse nodes
        a = Symbol([0.3, 1.0, 0.3], spec, formula=lambda theta: 1.0 + 0.6 * np.cos(theta))
    res = block_residuals(curve, a, N)
    assert ("section" in res) == curve.is_unit_circle
    assert max(res.values()) < tol, res


# ------------------------------------------------------------------ dichotomy

def test_dichotomy_winding_trends(circle1024):
    p = exponent_constant(4.0, 1024)
    q = exponent_constant(2.0, 1024)
    sizes = (16, 32, 64)
    for k in range(-3, 4):
        a = symbol_from_preset(f"monomial:{k}")
        v = dichotomy_probe(a, p, q, sizes, aspect=8)
        assert v.kernel_dim_T == tuple([max(0, -k)] * 3)
        assert v.kernel_dim_companion == tuple([max(0, k)] * 3)
        assert not v.fault
        if k > 0:
            assert v.verdict == "T-injective"
        elif k < 0:
            assert v.verdict == "companion-injective"
        else:
            assert v.verdict == "both"


def test_dichotomy_real_sign_changing_symbol(circle1024):
    p = exponent_constant(4.0, 1024)
    q = exponent_constant(2.0, 1024)
    a = symbol_from_preset("cos")
    v = dichotomy_probe(a, p, q, (16, 32, 64, 128), aspect=8)
    assert v.verdict in ("T-injective", "companion-injective", "both")
    assert not v.fault


def test_dichotomy_rejects_zero_symbol(circle1024):
    zero = Symbol(np.zeros(3, dtype=complex))
    with pytest.raises(ValueError, match="zero symbol"):
        dichotomy_probe(zero, exponent_constant(4.0, 1024), exponent_constant(2.0, 1024),
                        (16, 32))


def test_dichotomy_rejects_dominance_violation(circle1024):
    a = symbol_from_preset("one")
    with pytest.raises(ValueError, match="dominance"):
        dichotomy_probe(a, exponent_constant(2.0, 1024), exponent_constant(4.0, 1024),
                        (16, 32))


def test_dichotomy_rejects_sections_that_are_not_tall(circle1024):
    # with aspect -3 the shift's wide sections have kernels and the probe
    # called it companion-injective; aspect 0 faulted with "persistent kernels"
    a = symbol_from_preset("monomial:1")
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    for aspect in (-3, 0):
        with pytest.raises(ValueError, match="aspect must be at least 1"):
            dichotomy_probe(a, p, q, (16, 32), aspect=aspect)


def test_dichotomy_rejects_sizes_out_of_order(circle1024):
    # read from 256 down, the rising sigma_min of cos looked under-resolved
    a = symbol_from_preset("cos")
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    assert dichotomy_probe(a, p, q, (16, 32, 64, 128, 256)).verdict == "both"
    for sizes in ((256, 128, 64, 32, 16), (16, 16, 32)):
        with pytest.raises(ValueError, match="strictly increasing"):
            dichotomy_probe(a, p, q, sizes)


def _complex_section(a, m, n):
    """Test-side finite section, always complex, from scipy's Toeplitz builder."""
    K = max(m, n)
    window = a.coefficient_window(-K, K)
    return scipy_toeplitz(window[K + np.arange(m)], window[K - np.arange(n)])


def test_dichotomy_on_real_sections_matches_the_complex_svd(circle1024, monkeypatch):
    # real coefficients give float64 sections and a real SVD; the reference
    # runs the probe on complex sections built test-side
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    sizes = (16, 32, 64, 128, 256, 512)
    symbols = [symbol_from_preset("monomial:1"),
               symbol_from_preset("monomial:-2"),
               symbol_from_preset("singular:-0.3", degree=520),
               symbol_from_preset("cos"),
               symbol_from_preset("trig-random:3", seed=3),
               Symbol(np.array([0.5, -1.0, 3.0, 0.25, 2.0]))]
    probes = [dichotomy_probe(a, p, q, sizes, aspect=8) for a in symbols]
    monkeypatch.setattr(toeplitz, "finite_section", _complex_section)
    for a, got in zip(symbols, probes):
        ref = dichotomy_probe(a, p, q, sizes, aspect=8)
        assert (got.verdict, got.fault) == (ref.verdict, ref.fault), a.name
        assert got.kernel_dim_T == ref.kernel_dim_T, a.name
        assert got.kernel_dim_companion == ref.kernel_dim_companion, a.name
        # a few ulps of sigma_max, which sum |a_k| bounds
        tol = 4.0 * np.finfo(float).eps * np.abs(a.coefficients).sum()
        for side in ("sigma_min_T", "sigma_min_companion"):
            diff = np.abs(np.subtract(getattr(got, side), getattr(ref, side))).max()
            assert diff <= tol, (a.name, side, diff, tol)


def test_dichotomy_matches_the_full_section_svd(circle1024):
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    sizes, aspect, threshold = (16, 32, 64, 128, 256, 512), 8, toeplitz.KERNEL_THRESHOLD
    symbols = [symbol_from_preset("monomial:1"),
               symbol_from_preset("monomial:-2"),
               symbol_from_preset("cos"),
               symbol_from_preset("trig-random:5", seed=5)]
    assert symbols[-1].coefficients.imag.any()  # one complex section family
    probes = [dichotomy_probe(a, p, q, sizes, aspect=aspect) for a in symbols]
    for a, got in zip(symbols, probes):
        for which, b, sig, dim in (("T", a, got.sigma_min_T, got.kernel_dim_T),
                                   ("companion", flipped(a), got.sigma_min_companion,
                                    got.kernel_dim_companion)):
            svals = [np.linalg.svd(np.array(finite_section(b, n + aspect, n)),
                                   compute_uv=False) for n in sizes]
            full = tuple(float(sv[-1]) for sv in svals)
            if a.name.startswith("trig-random"):  # gcd 1: the section itself, bitwise
                assert sig == full, (a.name, which)
            else:  # split into blocks: within rounding of sigma_max
                assert np.allclose(sig, full, rtol=0, atol=1e-13 * svals[-1][0]), (a.name, which)
            assert dim == tuple(int(np.count_nonzero(sv < threshold * sv[0]))
                                for sv in svals), (a.name, which)
    assert [v.verdict for v in probes] == ["T-injective", "companion-injective",
                                           "both", "both"]  # trig-random:5 winds 0 times


def test_dichotomy_holds_one_section_at_a_time(circle1024):
    # all twelve of cos's sections and block stacks alive at once traced 2.89 MiB
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    a = symbol_from_preset("cos")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dichotomy_probe(a, p, q, (16, 32, 64, 128, 256, 512), aspect=8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _lacunary_symbols(rng, count):
    """Seeded symbols with offsets in -4..4 on d0 + gZ, g = 1..5, alternately
    real and complex."""
    for i in range(count):
        g = int(rng.integers(1, 6))
        support = np.arange(int(rng.integers(-4, -4 + g)), 5, g)
        offsets = support[rng.random(support.size) < 0.6]
        offsets = offsets if offsets.size else support[:1]
        c = np.zeros(9, dtype=complex)
        c[offsets + 4] = rng.standard_normal(offsets.size)
        if i % 2:
            c[offsets + 4] += 1j * rng.standard_normal(offsets.size)
        yield Symbol(c), offsets


def test_block_split_gives_the_full_sections_singular_values():
    # 100 symbols x 12 shapes; the worst measured error was 9.2e-15 of sigma_max
    shapes = ((11, 3), (9, 8), (8, 8), (5, 5), (8, 9), (3, 11), (24, 16), (16, 24),
              (1, 1), (1, 7), (7, 1), (12, 12))
    gcd_one = 0
    for a, offsets in _lacunary_symbols(np.random.default_rng(43), 100):
        for m, n in shapes:
            M = finite_section(a, m, n)
            blocks = toeplitz._blocks(M)
            got = toeplitz._union([toeplitz._singular_values(b) for b in blocks], min(m, n))
            ref = np.linalg.svd(np.array(M), compute_uv=False)
            assert got.shape == ref.shape, (a.coefficients, m, n)
            assert toeplitz._numerical_kernel(got)[0] == toeplitz._numerical_kernel(ref)[0]
            assert np.abs(got - ref).max() <= 1e-13 * ref[0], (a.coefficients, m, n)
            seen = offsets[(offsets >= 1 - n) & (offsets <= m - 1)]
            if seen.size and np.gcd.reduce(seen - seen[0]) == 1:
                gcd_one += 1
                assert len(blocks) == 1 and blocks[0] is M
                assert np.array_equal(got, ref), (a.coefficients, m, n)
    assert gcd_one > 100


def test_all_zero_window_gives_zero_singular_values(circle1024):
    # monomial:30 at aspect 8 reads no nonzero coefficient below n = 23
    M = finite_section(symbol_from_preset("monomial:30"), 24, 16)
    assert toeplitz._blocks(M) == []
    assert np.array_equal(toeplitz._union([], 16), np.zeros(16))
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    probe = dichotomy_probe(symbol_from_preset("monomial:30"), p, q, (8, 16), aspect=8)
    assert probe.kernel_dim_T == (8, 16) and probe.sigma_min_T == (0.0, 0.0)


def _received_shapes(monkeypatch, spec, sizes, aspect=8, seed=0):
    """The arrays the probe's SVDs receive, and the sections it builds."""
    received, sections = [], []
    svd, section = toeplitz._singular_values, toeplitz.finite_section
    monkeypatch.setattr(toeplitz, "_singular_values",
                        lambda blocks: received.append(blocks) or svd(blocks))
    monkeypatch.setattr(toeplitz, "finite_section",
                        lambda *args: sections.append(section(*args)) or sections[-1])
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    a = symbol_from_preset(spec, degree=max(sizes) + aspect, seed=seed)
    dichotomy_probe(a, p, q, sizes, aspect=aspect)
    return received, sections


def test_cost_pins_for_the_block_split(circle1024, monkeypatch):
    lab_mix_sizes = (16, 32, 64, 128, 256, 512)
    received, _ = _received_shapes(monkeypatch, "monomial:1", lab_mix_sizes)
    assert received and all(b.ndim == 3 and b.shape[1:] == (1, 1) for b in received)
    for n in lab_mix_sizes:
        received, _ = _received_shapes(monkeypatch, "cos", (n,))
        tall, wide = -(-(n + 8) // 2), -(-n // 2)
        assert all(b.ndim == 3 and b.shape[1] <= tall and b.shape[2] <= wide
                   for b in received), (n, [b.shape for b in received])
    received, sections = _received_shapes(monkeypatch, "trig-random:3", lab_mix_sizes)
    assert len(received) == len(sections) == 12
    for b in received:  # the read-only window view itself, not a copy
        assert any(b is s and np.shares_memory(b, s) for s in sections)
        assert not b.flags.writeable


# ----------------------------------------------------------------- norm bounds

def test_section_norm_bounded_by_sup_for_p2(circle1024):
    # on the analytic side of L^2 the operator norm is at most max |a|
    a = symbol_from_preset("one-plus-cos2")
    M = finite_section(a, 40, 32)
    sigma_max = np.linalg.svd(M, compute_uv=False)[0]
    assert sigma_max <= np.abs(a.values(circle1024)).max() * (1.0 + 1e-10)


def test_apply_norm_bound_over_corpus(circle1024, rng):
    # || P(a f) ||_2 <= ||P|| ||a||_4 ||f||_4 with ||P|| = 1 on L^2
    p4 = exponent_constant(4.0, 1024)
    q2 = exponent_constant(2.0, 1024)
    av = symbol_from_preset("one-plus-cos2").values(circle1024)
    na = norm_value(circle1024, av, p4)
    for _ in range(10):
        coeff = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        f = np.polynomial.polynomial.polyval(circle1024.nodes, coeff)
        lhs = norm_value(circle1024, riesz_projections(circle1024, av * f)[0], q2)
        assert lhs <= na * norm_value(circle1024, f, p4) * (1.0 + 1e-9)


def test_unbounded_symbol_bound_via_sections(circle1024, rng):
    # |exp(i phi) - 1|^(-1/4) lies in L^3 (not L^4); use the triple
    # 1/q = 1/4 + 1/3 and apply T(a) through the coefficient convolution
    s = -0.25
    a = symbol_from_preset("singular:-0.25", degree=220)
    p = exponent_constant(4.0, 1024)
    q = exponent_constant(12.0 / 7.0, 1024)
    # ||a||_3 oracle by adaptive quadrature of the closed form
    integral, _ = quad(lambda phi: (2 * np.sin(phi / 2)) ** (3 * s), 0, np.pi, points=[0])
    na3 = (2 * integral) ** (1.0 / 3.0)
    deg_f = 8
    sec = finite_section(a, 200, deg_f + 1)
    phi = np.angle(circle1024.nodes)
    for _ in range(5):
        coeff = rng.standard_normal(deg_f + 1) + 1j * rng.standard_normal(deg_f + 1)
        f = np.polynomial.polynomial.polyval(circle1024.nodes, coeff)
        out_coeff = sec @ coeff
        out = np.exp(1j * np.outer(phi, np.arange(200))) @ out_coeff
        lhs = norm_value(circle1024, out, q)
        rhs = na3 * norm_value(circle1024, f, p)
        assert lhs <= 4.0 * rhs
