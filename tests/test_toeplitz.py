import os
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import toeplitz as scipy_toeplitz
from scipy.special import gammaln, gammasgn

import siolab.toeplitz as toeplitz
from siolab.cauchy import riesz_projections
from siolab.corpus import random_trig_polynomial
from siolab.curves import curve_from_name
from siolab.exponents import exponent_constant
from siolab.spaces import norm_value
from siolab.toeplitz import (
    Symbol,
    dichotomy_probe,
    finite_section,
    singular_power_coefficients,
    symbol_from_coefficients,
    symbol_from_preset,
)


def mode(curve, k):
    return curve.nodes**k


# ------------------------------------------------------------------- symbols

def test_symbol_coefficients_match_closed_forms(circle1024):
    # exact coefficients: the FFT of node samples left imaginary parts of 5e-17,
    # which made the cos sections complex
    cos = symbol_from_preset("cos", circle1024)
    assert np.array_equal(cos.coefficient_window(-1, 1), [0.5, 0.0, 0.5])
    oc2 = symbol_from_preset("one-plus-cos2", circle1024)
    assert np.array_equal(oc2.coefficient_window(-2, 2), [0.25, 0.0, 1.5, 0.0, 0.25])
    for a in (cos, oc2):
        assert finite_section(a, 12, 8, "T").dtype == np.float64
        assert finite_section(a, 12, 8, "companion").dtype == np.float64


@pytest.mark.parametrize("spec", ["one", "cos", "one-plus-cos2"])
def test_sampled_presets_take_any_curve(ellipse4096, spec):
    # the value functions and the exact coefficients describe the same symbol
    a = symbol_from_preset(spec, ellipse4096)
    synthesized = symbol_from_coefficients(a.coefficients, ellipse4096).values
    assert a.exact_band
    assert np.abs(a.values - synthesized).max() < 1e-14


def test_symbol_rejects_nonfinite_coefficients(circle1024):
    for bad in (np.inf, np.nan, complex(1.0, -np.inf)):
        with pytest.raises(ValueError, match="non-finite Fourier coefficients"):
            symbol_from_coefficients(np.array([1.0, bad, 0.5]), circle1024)
        with pytest.raises(ValueError, match="non-finite Fourier coefficients"):
            Symbol(np.ones(1024), np.array([1.0, bad, 0.5]), 1)
    # values may be infinite: |t - 1|^s is at node 0, its coefficients are not
    a = symbol_from_preset("singular:-0.3", circle1024, degree=40)
    assert np.isinf(a.values[0]) and np.all(np.isfinite(a.coefficients))


@pytest.mark.parametrize("curve_name", ["circle1024", "ellipse4096"])
def test_coefficient_symbols_take_the_node_angles(request, curve_name):
    # the sampled presets read the node angles, and so must monomial:k and
    # trig-random; on the ellipse uniform angles were 0.34 off for monomial:1
    curve = request.getfixturevalue(curve_name)
    theta = np.angle(curve.nodes)
    monomial = lambda k: symbol_from_preset(f"monomial:{k}", curve).values
    assert np.abs(monomial(1) - np.exp(1j * theta)).max() < 1e-15
    assert np.abs(monomial(-3) - np.exp(-3j * theta)).max() < 1e-14
    c = np.array([0.5, 0.0, 1.0, 0.0, 0.5])  # 1 + cos(2 theta)
    values = symbol_from_coefficients(c, curve).values
    assert np.abs(values - (1.0 + np.cos(2.0 * theta))).max() < 1e-14


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "square", "perturbed-circle:0.3,12"])
@pytest.mark.parametrize("n", [512, 1000, 4096])
def test_symbols_and_the_corpus_read_one_trig_table(name, n):
    # trig-random:d is bitwise the corpus polynomial from the same generator,
    # and monomial:k bitwise the sum over exp(i k theta) that it read before
    curve = curve_from_name(name, n)
    for d in (1, 3, 8, 12):
        symbol = symbol_from_preset(f"trig-random:{d}", curve, rng=np.random.default_rng(d))
        assert np.array_equal(symbol.values,
                              random_trig_polynomial(curve, np.random.default_rng(d), d))
    theta = np.angle(curve.nodes)
    for k in (-7, 0, 1, 40):
        c = np.zeros(2 * abs(k) + 1, dtype=complex)
        c[abs(k) + k] = 1.0
        old = np.exp(1j * np.outer(theta, np.arange(-abs(k), abs(k) + 1))) @ c
        assert np.array_equal(symbol_from_preset(f"monomial:{k}", curve).values, old)


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
    a = symbol_from_preset("monomial:1", circle1024)
    M = finite_section(a, 4, 4, "T")
    assert np.array_equal(M, np.diag(np.ones(3), -1))


def test_tridiagonal_section(circle1024):
    a = symbol_from_coefficients(np.array([1.0, 2.0, 1.0], dtype=complex), circle1024)
    M = finite_section(a, 3, 3, "T").real
    assert np.array_equal(M, np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))


def test_real_symbol_gives_hermitian_square_section(circle1024):
    a = symbol_from_preset("singular:-0.25", circle1024, degree=64)
    M = finite_section(a, 32, 32, "T")
    assert np.abs(M - M.conj().T).max() < 1e-14


def test_section_constant_diagonals(circle1024):
    rng = np.random.default_rng(8)
    a = symbol_from_preset("trig-random:6", circle1024, rng=rng)
    M = finite_section(a, 9, 5, "T")
    for d in range(-4, 9):
        diag = np.diagonal(M, -d)
        assert np.abs(diag - diag[0]).max() < 1e-15


def test_section_degree_validation(circle1024):
    a = symbol_from_preset("singular:-0.25", circle1024, degree=50)
    with pytest.raises(ValueError, match="degree"):
        finite_section(a, 64, 64, "T")
    trig = symbol_from_preset("monomial:2", circle1024)
    finite_section(trig, 64, 64, "T")  # exact band: any size allowed


def test_companion_reflects_coefficients(circle1024):
    rng = np.random.default_rng(9)
    a = symbol_from_preset("trig-random:3", circle1024, rng=rng)
    T = finite_section(a, 6, 6, "T")
    C = finite_section(a, 6, 6, "companion")
    assert np.abs(C - T.T).max() < 1e-15


def test_section_is_real_exactly_when_its_coefficients_are(circle1024):
    rng = np.random.default_rng(10)
    cases = {
        "monomial:1": symbol_from_preset("monomial:1", circle1024),
        "singular:-0.3": symbol_from_preset("singular:-0.3", circle1024, degree=40),
        "real array": symbol_from_coefficients(np.array([0.5, -1.0, 3.0, 0.25, 2.0]), circle1024),
        "trig-random:3": symbol_from_preset("trig-random:3", circle1024, rng=rng),
    }
    j_minus_k = np.subtract.outer(np.arange(19), np.arange(12))
    for name, a in cases.items():
        real = not a.coefficients.imag.any()
        assert real == (name != "trig-random:3")
        window = a.coefficient_window(-18, 18)
        for which, sign in (("T", 1), ("companion", -1)):
            M = finite_section(a, 19, 12, which)
            assert M.dtype == (np.float64 if real else np.complex128), (name, which)
            promoted = window[sign * j_minus_k + 18]
            assert np.array_equal(M, promoted), (name, which)


# ----------------------------------------------------------------- svd probes

def numerical_kernel(M):
    return toeplitz._numerical_kernel(toeplitz._singular_values(M), 1e-8)


def test_kernel_of_square_shift(circle1024):
    a = symbol_from_coefficients(np.array([0, 0, 1], dtype=complex), circle1024)
    dim, sigma_min = numerical_kernel(finite_section(a, 8, 8, "T"))
    assert dim == 1
    assert sigma_min == pytest.approx(0.0, abs=1e-15)


def test_tall_shift_has_orthonormal_columns(circle1024):
    a = symbol_from_coefficients(np.array([0, 0, 1], dtype=complex), circle1024)
    dim, sigma_min = numerical_kernel(finite_section(a, 9, 8, "T"))
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
    a = symbol_from_preset("cos", circle1024)
    for m, n in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="positive"):
            finite_section(a, m, n, "T")


# ------------------------------------------------------ sections against S

def test_matrix_apply_consistency(circle1024):
    rng = np.random.default_rng(10)
    a = symbol_from_preset("trig-random:4", circle1024, rng=rng)
    n = 8
    # T(a) f = P(a f) and the companion g -> Q(a g), with P and Q from S
    sec = finite_section(a, n, n, "T")
    for col in range(n):
        out = riesz_projections(circle1024, a.values * mode(circle1024, col))[0]
        spectrum = np.fft.fft(out) / out.size
        got = spectrum[:n]
        assert np.abs(got - sec[:, col]).max() < 1e-10
    csec = finite_section(a, n, n, "companion")
    for col in range(n):
        out = riesz_projections(circle1024, a.values * mode(circle1024, -(col + 1)))[1]
        spectrum = np.fft.fft(out) / out.size
        got = spectrum[[-(row + 1) for row in range(n)]]
        assert np.abs(got - csec[:, col]).max() < 1e-10


def test_linearity_of_sections(circle1024):
    rng = np.random.default_rng(12)
    a = symbol_from_preset("trig-random:4", circle1024, rng=rng)
    b = symbol_from_preset("trig-random:3", circle1024, rng=rng)
    alpha, beta = 1.7 - 0.3j, -0.4 + 2.2j
    combo = symbol_from_coefficients(
        alpha * a.coefficient_window(-8, 8) + beta * b.coefficient_window(-8, 8), circle1024
    )
    lhs = finite_section(combo, 6, 6, "T")
    rhs = alpha * finite_section(a, 6, 6, "T") + beta * finite_section(b, 6, 6, "T")
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
        a = symbol_from_preset(spec, curve, rng=np.random.default_rng(13))
    else:
        # the trig polynomial 1 + 0.6 cos(theta) sampled on the ellipse nodes
        values = 1.0 + 0.6 * np.cos(np.angle(curve.nodes))
        a = Symbol(values, [0.3, 1.0, 0.3], 1, spec, exact_band=True)
    res = block_residuals(curve, a, N)
    assert ("section" in res) == curve.is_unit_circle
    assert max(res.values()) < tol, res


# ------------------------------------------------------------------ dichotomy

def test_dichotomy_winding_trends(circle1024):
    p = exponent_constant(4.0, 1024)
    q = exponent_constant(2.0, 1024)
    sizes = (16, 32, 64)
    for k in range(-3, 4):
        a = symbol_from_preset(f"monomial:{k}", circle1024)
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
    a = symbol_from_preset("cos", circle1024)
    v = dichotomy_probe(a, p, q, (16, 32, 64, 128), aspect=8)
    assert v.verdict in ("T-injective", "companion-injective", "both")
    assert not v.fault


def test_dichotomy_rejects_zero_symbol(circle1024):
    zero = symbol_from_coefficients(np.zeros(3, dtype=complex), circle1024)
    with pytest.raises(ValueError, match="zero symbol"):
        dichotomy_probe(zero, exponent_constant(4.0, 1024), exponent_constant(2.0, 1024),
                        (16, 32))


def test_dichotomy_rejects_dominance_violation(circle1024):
    a = symbol_from_preset("one", circle1024)
    with pytest.raises(ValueError, match="dominance"):
        dichotomy_probe(a, exponent_constant(2.0, 1024), exponent_constant(4.0, 1024),
                        (16, 32))


def test_dichotomy_rejects_sections_that_are_not_tall(circle1024):
    # with aspect -3 the shift's wide sections have kernels and the probe
    # called it companion-injective; aspect 0 faulted with "persistent kernels"
    a = symbol_from_preset("monomial:1", circle1024)
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    for aspect in (-3, 0):
        with pytest.raises(ValueError, match="aspect must be at least 1"):
            dichotomy_probe(a, p, q, (16, 32), aspect=aspect)


def test_dichotomy_rejects_sizes_out_of_order(circle1024):
    # read from 256 down, the rising sigma_min of cos looked under-resolved
    a = symbol_from_preset("cos", circle1024)
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    assert dichotomy_probe(a, p, q, (16, 32, 64, 128, 256)).verdict == "both"
    for sizes in ((256, 128, 64, 32, 16), (16, 16, 32)):
        with pytest.raises(ValueError, match="strictly increasing"):
            dichotomy_probe(a, p, q, sizes)


def _complex_section(a, m, n, which):
    """Test-side finite section, always complex, from scipy's Toeplitz builder."""
    sign = 1 if which == "T" else -1
    K = max(m, n)
    window = a.coefficient_window(-K, K)
    return scipy_toeplitz(window[K + sign * np.arange(m)], window[K - sign * np.arange(n)])


def test_dichotomy_on_real_sections_matches_the_complex_svd(circle1024, monkeypatch):
    # real coefficients give float64 sections and a real SVD; the reference
    # runs the probe on complex sections built test-side
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    sizes = (16, 32, 64, 128, 256, 512)
    symbols = [symbol_from_preset("monomial:1", circle1024),
               symbol_from_preset("monomial:-2", circle1024),
               symbol_from_preset("singular:-0.3", circle1024, degree=520),
               symbol_from_preset("cos", circle1024),
               symbol_from_preset("trig-random:3", circle1024, rng=np.random.default_rng(3)),
               symbol_from_coefficients(np.array([0.5, -1.0, 3.0, 0.25, 2.0]), circle1024)]
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


def _serial_svals(sections_t, sections_c):
    """Test-side reference: one thread, one np.linalg.svd per copied section."""
    return ([np.linalg.svd(np.array(s), compute_uv=False) for s in sections_t],
            [np.linalg.svd(np.array(s), compute_uv=False) for s in sections_c])


def test_dichotomy_on_two_threads_is_bitwise_the_serial_svd(circle1024, monkeypatch):
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    sizes, aspect, threshold = (16, 32, 64, 128, 256, 512), 8, toeplitz.KERNEL_THRESHOLD
    symbols = [symbol_from_preset("monomial:1", circle1024),
               symbol_from_preset("monomial:-2", circle1024),
               symbol_from_preset("cos", circle1024),
               symbol_from_preset("trig-random:5", circle1024, rng=np.random.default_rng(5))]
    assert symbols[-1].coefficients.imag.any()  # one complex section family
    started, thread = [], threading.Thread
    monkeypatch.setattr(threading, "Thread", lambda **kw: started.append(kw) or thread(**kw))
    probes = [dichotomy_probe(a, p, q, sizes, aspect=aspect) for a in symbols]
    assert len(started) == len(symbols)
    for a, got in zip(symbols, probes):
        for which, sig, dim in (("T", got.sigma_min_T, got.kernel_dim_T),
                                ("companion", got.sigma_min_companion,
                                 got.kernel_dim_companion)):
            svals = [np.linalg.svd(np.array(finite_section(a, n + aspect, n, which)),
                                   compute_uv=False) for n in sizes]
            assert sig == tuple(float(sv[-1]) for sv in svals), (a.name, which)
            assert dim == tuple(int(np.count_nonzero(sv < threshold * sv[0]))
                                for sv in svals), (a.name, which)
    monkeypatch.setattr(toeplitz, "_singular_values_of_both", _serial_svals)
    for a, got in zip(symbols, probes):
        assert got == dichotomy_probe(a, p, q, sizes, aspect=aspect), a.name
    assert [v.verdict for v in probes] == ["T-injective", "companion-injective",
                                           "both", "both"]  # trig-random:5 winds 0 times


def test_dichotomy_runs_where_os_has_no_sched_getaffinity(circle1024, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity; the probe read it and died there
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    a = symbol_from_preset("monomial:1", circle1024)
    here = dichotomy_probe(a, p, q, (16, 32, 64))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert dichotomy_probe(a, p, q, (16, 32, 64)) == here


@pytest.mark.parametrize("side", ["companion", "T"])
def test_dichotomy_svd_error_reaches_the_caller(circle1024, monkeypatch, side):
    # the shift's companion section has its ones above the diagonal, its T
    # section below; fail on the 64-column section of one side only
    p, q = exponent_constant(4.0, 1024), exponent_constant(2.0, 1024)
    a = symbol_from_preset("monomial:1", circle1024)
    svd = toeplitz._singular_values

    def failing(section):
        is_companion = section[0, 1] == 1.0
        if section.shape[1] == 64 and is_companion == (side == "companion"):
            raise RuntimeError(f"{side} SVD failed")
        return svd(section)

    monkeypatch.setattr(toeplitz, "_singular_values", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{side} SVD failed"):
        dichotomy_probe(a, p, q, (16, 32, 64, 128))
    assert threading.active_count() == before


def test_dichotomy_verdict_record_schema(circle1024):
    a = symbol_from_preset("cos", circle1024)
    v = dichotomy_probe(a, exponent_constant(4.0, 1024), exponent_constant(2.0, 1024),
                        (16, 32), aspect=8)
    rec = v.as_record()
    assert sorted(rec) == ["sigma_min_T", "sigma_min_companion", "sizes", "symbol", "verdict"]


# ----------------------------------------------------------------- norm bounds

def test_section_norm_bounded_by_sup_for_p2(circle1024):
    # on the analytic side of L^2 the operator norm is at most max |a|
    a = symbol_from_preset("one-plus-cos2", circle1024)
    M = finite_section(a, 40, 32, "T")
    sigma_max = np.linalg.svd(M, compute_uv=False)[0]
    assert sigma_max <= np.abs(a.values).max() * (1.0 + 1e-10)


def test_apply_norm_bound_over_corpus(circle1024, rng):
    # || P(a f) ||_2 <= ||P|| ||a||_4 ||f||_4 with ||P|| = 1 on L^2
    p4 = exponent_constant(4.0, 1024)
    q2 = exponent_constant(2.0, 1024)
    a = symbol_from_preset("one-plus-cos2", circle1024)
    na = norm_value(circle1024, a.values, p4)
    for _ in range(10):
        coeff = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        f = np.polynomial.polynomial.polyval(circle1024.nodes, coeff)
        lhs = norm_value(circle1024, riesz_projections(circle1024, a.values * f)[0], q2)
        assert lhs <= na * norm_value(circle1024, f, p4) * (1.0 + 1e-9)


def test_unbounded_symbol_bound_via_sections(circle1024, rng):
    # |exp(i phi) - 1|^(-1/4) lies in L^3 (not L^4); use the triple
    # 1/q = 1/4 + 1/3 and apply T(a) through the coefficient convolution
    s = -0.25
    a = symbol_from_preset("singular:-0.25", circle1024, degree=220)
    p = exponent_constant(4.0, 1024)
    q = exponent_constant(12.0 / 7.0, 1024)
    # ||a||_3 oracle by adaptive quadrature of the closed form
    integral, _ = quad(lambda phi: (2 * np.sin(phi / 2)) ** (3 * s), 0, np.pi, points=[0])
    na3 = (2 * integral) ** (1.0 / 3.0)
    deg_f = 8
    sec = finite_section(a, 200, deg_f + 1, "T")
    phi = np.angle(circle1024.nodes)
    for _ in range(5):
        coeff = rng.standard_normal(deg_f + 1) + 1j * rng.standard_normal(deg_f + 1)
        f = np.polynomial.polynomial.polyval(circle1024.nodes, coeff)
        out_coeff = sec @ coeff
        out = np.exp(1j * np.outer(phi, np.arange(200))) @ out_coeff
        lhs = norm_value(circle1024, out, q)
        rhs = na3 * norm_value(circle1024, f, p)
        assert lhs <= 4.0 * rhs
