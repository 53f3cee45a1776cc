import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import siolab.cauchy as cauchy
from siolab.cauchy import (
    PlemeljResidual,
    _quadrature_S,
    _split_S,
    adjoint_residuals,
    apply_S,
    cauchy_offcurve,
    conjugation_H,
    plemelj_residual,
    riesz_projections,
    s_path,
)
from siolab.corpus import random_trig_polynomial, rational_corpus
from siolab.curves import curve_from_name, make_ellipse, make_unit_circle
from siolab.toeplitz import symbol_from_coefficients, symbol_from_samples


def modes(curve, k):
    return curve.nodes**k


# ------------------------------------------------------------------ apply_S

def test_circle_multiplier_on_modes(circle512):
    for k in range(0, 20):
        f = modes(circle512, k)
        assert np.abs(apply_S(circle512, f) - f).max() < 1e-12
    for k in range(1, 20):
        f = modes(circle512, -k)
        assert np.abs(apply_S(circle512, f) + f).max() < 1e-12


def test_S_of_one_is_one_on_zoo(ellipse4096):
    one = np.ones(ellipse4096.n_nodes, dtype=complex)
    assert np.abs(apply_S(ellipse4096, one) - 1.0).max() < 1e-12


def test_S_rational_residue_identities():
    # each bound is at least 5x the largest error measured relative to max |f|
    for name, n, path, bound in [
        ("circle", 4096, "fft", 1e-14),  # 1.1e-15
        ("ellipse:2,1", 8192, "split", 5e-12),  # 1.8e-14
        ("perturbed-circle:0.1,5", 2048, "split", 5e-12),  # 2.4e-14
        ("perturbed-circle:0.3,12", 4096, "split", 5e-12),  # 4.4e-13
        ("square", 1024, "dense", 2e-2),  # 5.0e-3, first order at the corners
    ]:
        curve = curve_from_name(name, n)
        assert s_path(curve) == path
        tau = curve.nodes
        for pole, sign in ((3.0 + 1.0j, 1.0), (0.2j, -1.0)):
            # pole outside: S f = f; pole inside: S f = -f
            f = 1.0 / (tau - pole)
            error = np.abs(apply_S(curve, f) - sign * f).max() / np.abs(f).max()
            assert error <= bound, (name, pole, error)


def test_quadrature_backend_matches_circle_multiplier(circle8192):
    rng = np.random.default_rng(2)
    k = np.arange(-12, 13)
    f = np.exp(1j * np.outer(np.angle(circle8192.nodes), k)) @ (
        rng.standard_normal(25) + 1j * rng.standard_normal(25)
    )
    # the circle runs the exact multiplier; the split is checked against it
    assert s_path(circle8192) == "fft"
    exact = apply_S(circle8192, f)
    split = _split_S(circle8192, f)
    assert np.abs(exact - split).max() < 1e-10


def test_quadrature_refuses_tiny_curves():
    tiny = make_ellipse(2.0, 1.0, 32)
    with pytest.raises(ValueError, match="at least"):
        apply_S(tiny, np.ones(32))


def test_split_S_spectral_on_ellipse():
    curve = make_ellipse(2.0, 1.0, 256)
    assert s_path(curve) == "split"
    f = 1.0 / (curve.nodes - 2.3)  # pole outside: S f = f
    assert np.abs(apply_S(curve, f) - f).max() < 1e-12


def test_split_S_perturbed_circle():
    # the remainder is unresolved below m = n = 1024 here
    curve = curve_from_name("perturbed-circle:0.3,12", 1024)
    assert s_path(curve) == "split"
    f = 1.0 / (curve.nodes - 2.3)
    assert np.abs(apply_S(curve, f) - f).max() < 1e-11


def test_split_and_dense_agree_on_ellipse():
    # the split is exact to rounding, so the gap is the dense path's h^5 error
    gaps = []
    for n in (256, 2048):
        curve = make_ellipse(2.0, 1.0, n)
        f = 1.0 / (curve.nodes - 2.3)
        split = apply_S(curve, f)
        assert np.abs(split - f).max() < 1e-11
        gaps.append(np.abs(split - _quadrature_S(curve, f)).max())
    assert gaps[0] < 1e-4
    assert gaps[1] < 1e-8
    assert gaps[0] / gaps[1] > 8.0**4  # at least fourth order


def test_dense_path_only_for_unresolved_curves():
    assert s_path(curve_from_name("square", 256)) == "dense"
    assert s_path(make_unit_circle(256)) == "fft"


# ---------------------------------------------------------------- projections

def test_projections_split_modes(circle512):
    f = modes(circle512, 3) + 2.0 * modes(circle512, -2) + 0.5
    pf, qf = riesz_projections(circle512, f)
    assert np.abs(pf - (modes(circle512, 3) + 0.5)).max() < 1e-12
    assert np.abs(qf - 2.0 * modes(circle512, -2)).max() < 1e-12
    assert np.abs(pf + qf - f).max() < 1e-15  # resolution of identity at machine precision


def test_projection_kills_interior_pole(circle8192):
    f = 1.0 / (circle8192.nodes - 0.3)  # both poles of the Cauchy kernel inside
    pf, qf = riesz_projections(circle8192, f)
    assert np.abs(pf).max() < 1e-10
    assert np.abs(qf - f).max() < 1e-10


def test_projection_idempotent_on_ellipse(ellipse4096):
    rng = np.random.default_rng(3)
    k = np.arange(-8, 9)
    f = (ellipse4096.nodes[:, None] ** k[None, :]) @ (
        rng.standard_normal(17) + 1j * rng.standard_normal(17)
    )
    f = f / np.abs(f).max()
    pf, qf = riesz_projections(ellipse4096, f)
    ppf, qpf = riesz_projections(ellipse4096, pf)
    pqf, qqf = riesz_projections(ellipse4096, qf)
    assert np.abs(ppf - pf).max() < 1e-8
    assert np.abs(qqf - qf).max() < 1e-8
    assert np.abs(qpf).max() < 1e-8
    assert np.abs(pqf).max() < 1e-8


# ------------------------------------------------------------------ off-curve

def test_offcurve_cauchy_formula(circle4096):
    one = np.ones(4096, dtype=complex)
    assert cauchy_offcurve(circle4096, one, 0.3 + 0.1j) == pytest.approx(1.0, abs=1e-10)
    assert cauchy_offcurve(circle4096, one, 2.0 - 1.0j) == pytest.approx(0.0, abs=1e-10)
    ident = circle4096.nodes.copy()
    z = 0.4 - 0.2j
    assert cauchy_offcurve(circle4096, ident, z) == pytest.approx(z, abs=1e-10)


def test_offcurve_series_oracle(circle4096):
    rng = np.random.default_rng(4)
    k = np.arange(-6, 7)
    coeff = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    f = np.exp(1j * np.outer(np.angle(circle4096.nodes), k)) @ coeff
    z = 0.5
    # analytic part evaluated as a power series: sum_{k >= 0} c_k z^k
    oracle = sum(coeff[6 + m] * z**m for m in range(0, 7))
    assert cauchy_offcurve(circle4096, f, z) == pytest.approx(oracle, abs=1e-8)


def test_offcurve_warns_near_curve(circle512):
    one = np.ones(512, dtype=complex)
    with pytest.warns(UserWarning, match="two node spacings"):
        cauchy_offcurve(circle512, one, 1.0 - 1e-4 + 0.0j)
    with pytest.raises(ValueError, match="on a curve node"):
        cauchy_offcurve(circle512, one, circle512.nodes[17])


def test_offcurve_stack_matches_one_function_calls():
    curve = make_ellipse(2.0, 1.0, 512)
    rng = np.random.default_rng(5)
    F = rng.standard_normal((512, 3)) + 1j * rng.standard_normal((512, 3))
    # 300 targets span five blocks of 64, inside and outside the ellipse
    angles = np.exp(2j * np.pi * rng.random(300))
    z = np.where(np.arange(300) % 2 == 0, 0.5 * rng.random(300), 3.0 + rng.random(300)) * angles
    stacked = cauchy_offcurve(curve, F, z)
    assert stacked.shape == (300, 3)
    for j in range(3):
        assert np.array_equal(stacked[:, j], cauchy_offcurve(curve, F[:, j], z))
    # a block of targets does not depend on the other blocks of its call
    block = cauchy.OFFCURVE_BYTES // (8 * 512)
    parts = [cauchy_offcurve(curve, F, z[s : s + block]) for s in range(0, 300, block)]
    assert np.array_equal(stacked, np.concatenate(parts))
    single = cauchy_offcurve(curve, F, 0.3 + 0.1j)
    assert single.shape == (3,)
    assert np.array_equal(single, [cauchy_offcurve(curve, F[:, j], 0.3 + 0.1j)
                                   for j in range(3)])


def test_offcurve_stack_keeps_the_node_and_near_curve_checks(circle512):
    F = np.ones((512, 4), dtype=complex)
    with pytest.warns(UserWarning, match="two node spacings"):
        cauchy_offcurve(circle512, F, [0.2, 1.0 - 1e-4])
    with pytest.raises(ValueError, match="on a curve node"):
        cauchy_offcurve(circle512, F, [0.2, circle512.nodes[17]])


@pytest.mark.parametrize("bad", [np.nan, complex(0.2, np.inf), complex(np.nan, 0.1)])
def test_offcurve_rejects_non_finite_targets(circle512, bad):
    one = np.ones(512, dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        cauchy_offcurve(circle512, one, bad)
    with pytest.raises(ValueError, match="finite"):
        cauchy_offcurve(circle512, np.ones((512, 2)), [0.2, bad])


def test_offcurve_takes_an_empty_target_array(circle512):
    assert cauchy_offcurve(circle512, np.ones(512), []).shape == (0,)
    empty = np.array([], dtype=complex)
    assert cauchy_offcurve(circle512, np.ones((512, 3)), empty).shape == (0, 3)


def test_offcurve_peak_memory_on_the_sio_check_shape():
    # the sio-ellipse Plemelj call: 4 functions at 256 targets on 2048 nodes;
    # numpy reports its allocations to tracemalloc, so the peak is exact
    curve = curve_from_name("ellipse:2,1", 2048)
    F = np.column_stack([v for _, v in rational_corpus(curve, np.random.default_rng(0), count=4)])
    idx = np.arange(0, 2048, 8)
    z = curve.nodes[idx] + 0.04j * curve.unit_tangents[idx]
    cauchy_offcurve(curve, F, z)  # warm the curve's cached spacing
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cauchy_offcurve(curve, F, z)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# -------------------------------------------------------------------- Plemelj

def test_plemelj_exterior_pole_identity(circle8192):
    f = 1.0 / (circle8192.nodes - 2.5)
    r = plemelj_residual(circle8192, f, [0.08, 0.04, 0.02, 0.01], targets=128)
    assert r.residual_plus < 1e-5
    assert r.residual_minus < 1e-5


def test_plemelj_monomial_limits(circle8192):
    f = modes(circle8192, 3)
    r = plemelj_residual(circle8192, f, [0.08, 0.04, 0.02, 0.01], targets=128)
    assert r.residual_plus < 1e-8
    assert r.residual_minus < 1e-8


def test_plemelj_raw_offsets_shrink(ellipse8192):
    f = 1.0 / (ellipse8192.nodes - (0.1 + 0.05j))
    r = plemelj_residual(ellipse8192, f, [0.16, 0.08, 0.04, 0.02], targets=128)
    raw = r.per_offset_minus
    assert raw[0] < raw[-1]  # offsets are sorted ascending
    assert r.residual_minus < raw[0]


@pytest.mark.parametrize("name, n", [("ellipse:2,1", 1024), ("square", 256),
                                     ("circle", 1024)])
def test_plemelj_stack_matches_one_function_calls(name, n):
    curve = curve_from_name(name, n)
    functions = [f for _, f in rational_corpus(curve, np.random.default_rng(3), count=4)]
    offsets = [0.08, 0.04, 0.02, 0.01]
    stacked = plemelj_residual(curve, np.array(functions), offsets, targets=64)
    single = [plemelj_residual(curve, f, offsets, targets=64) for f in functions]
    if s_path(curve) == "split":
        # S takes the stack in one call, and its tail test may refine further
        # than one function's, so the split agrees to rounding
        scale = 1e-12 * np.abs(np.array(functions)).max()
        for a, b in zip(stacked, single):
            assert a.offsets == b.offsets
            for field in ("residual_plus", "residual_minus", "per_offset_plus",
                          "per_offset_minus"):
                assert np.abs(np.subtract(getattr(a, field), getattr(b, field))).max() <= scale
    else:
        assert stacked == single
    one = plemelj_residual(curve, np.array(functions[:1]), [0.05], targets=64)
    assert one == [plemelj_residual(curve, functions[0], [0.05], targets=64)]
    assert isinstance(plemelj_residual(curve, functions[0], [0.05]), PlemeljResidual)


def test_plemelj_on_the_circle_takes_offsets_past_2_directly(circle512):
    # offsets in (0, 2) go by FFT; the rest by cauchy_offcurve, in the same result
    f = 1.0 / (circle512.nodes - 2.5)
    both = plemelj_residual(circle512, f, [0.05, 2.5], targets=64)
    fft_only = plemelj_residual(circle512, f, [0.05], targets=64)
    assert both.per_offset_plus[0] == fft_only.per_offset_plus[0]
    idx = np.arange(0, 512, 8)
    pf, qf = riesz_projections(circle512, f)
    normal = 1j * circle512.unit_tangents[idx]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inside = cauchy_offcurve(circle512, f, circle512.nodes[idx] + 2.5 * normal)
        outside = cauchy_offcurve(circle512, f, circle512.nodes[idx] - 2.5 * normal)
    assert both.per_offset_plus[1] == pytest.approx(np.abs(inside - pf[idx]).max(), rel=1e-12)
    assert both.per_offset_minus[1] == pytest.approx(np.abs(-outside - qf[idx]).max(), rel=1e-12)


def test_plemelj_rejects_bad_offsets(circle512):
    with pytest.raises(ValueError):
        plemelj_residual(circle512, np.ones(512), [])
    with pytest.raises(ValueError):
        plemelj_residual(circle512, np.ones(512), [-0.1])


@pytest.mark.parametrize("offsets", [[0.05, 0.05], [0.05, np.nan], [np.inf], [0.02, 0.04, 0.02]])
def test_plemelj_rejects_repeated_or_non_finite_offsets(circle512, offsets):
    with pytest.raises(ValueError, match="distinct|finite"):
        plemelj_residual(circle512, np.ones(512), offsets)


def test_plemelj_rejects_targets_below_one(circle512):
    for targets in (0, -3):
        with pytest.raises(ValueError, match="targets must be at least 1"):
            plemelj_residual(circle512, np.ones(512), [0.05], targets=targets)


@pytest.mark.parametrize("n", [64, 512, 4096])
def test_circle_plemelj_sums_match_the_direct_sum(n, monkeypatch):
    # on the circle the off-curve sums are the trapezoid sums of cauchy_offcurve,
    # taken by FFT; at n = 64 and offset 0.01, rho^n = 0.53 tests the mode folding
    curve = make_unit_circle(n)
    rng = np.random.default_rng(6)
    F = np.array([f for _, f in rational_corpus(curve, rng, count=4)]
                 + list(random_trig_polynomial(curve, rng, degree=12, count=2)))
    spectrum = np.fft.fft(F, axis=1) / n
    offsets = [0.3, 0.08, 0.01, 1.5]
    normal = 1j * curve.unit_tangents

    def direct(spectrum, rho):
        # the targets the general path uses, base + (1 - rho) * interior normal
        return cauchy_offcurve(curve, F.T, curve.nodes + (1.0 - rho) * normal).T

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 0.01 lies within two node spacings for n <= 512
        for d in offsets:
            for rho in (1.0 - d, 1.0 + d):
                fast = cauchy._circle_offcurve(spectrum, rho)
                slow = direct(spectrum, rho)
                assert np.abs(fast - slow).max() <= 1e-13 * np.abs(slow).max()

    fast = plemelj_residual(curve, F, offsets, targets=64)
    monkeypatch.setattr(cauchy, "_circle_offcurve", direct)
    slow = plemelj_residual(curve, F, offsets, targets=64)
    for a, b in zip(fast, slow):
        assert a.offsets == b.offsets
        for field in ("residual_plus", "residual_minus", "per_offset_plus", "per_offset_minus"):
            assert np.abs(np.subtract(getattr(a, field), getattr(b, field))).max() <= 1e-13


# ---------------------------------------------------------------- conjugation

def test_conjugation_on_circle_constant(circle512):
    h = conjugation_H(circle512, np.ones(512))
    phi = np.angle(circle512.nodes)
    assert np.abs(h - np.exp(-1j * (phi + np.pi / 2))).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    f=arrays(np.complex128, 64,
             elements=st.complex_numbers(max_magnitude=50.0, allow_nan=False,
                                         allow_infinity=False)),
    alpha=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)
def test_conjugation_involution_and_antilinearity(f, alpha):
    curve = make_unit_circle(64)
    assert np.abs(conjugation_H(curve, conjugation_H(curve, f)) - f).max() < 1e-12
    lhs = conjugation_H(curve, alpha * f)
    rhs = np.conj(alpha) * conjugation_H(curve, f)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_conjugation_flips_i(circle512, rng):
    g = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    assert np.abs(conjugation_H(circle512, 1j * g) + 1j * conjugation_H(circle512, g)).max() < 1e-12


# ------------------------------------------------------------------- adjoints

def test_adjoint_identities_circle(circle4096):
    rep = adjoint_residuals(circle4096, 64)
    assert rep.s_residual < 1e-10
    assert rep.p_residual < 1e-10
    assert rep.q_residual < 1e-10


def test_adjoint_identities_ellipse(ellipse4096):
    rep = adjoint_residuals(ellipse4096, 32)
    assert rep.s_residual < 1e-3
    assert rep.p_residual < 1e-3
    assert rep.q_residual < 1e-3


def _direct_certificate(curve, basis_size):
    """The mode-basis residuals by the direct formulas: S applied to PB and QB, 11 pairing matrices."""
    from siolab.cauchy import centered_modes, mode_basis, operator_matrix

    B = mode_basis(curve, centered_modes(basis_size))
    SB = apply_S(curve, B.T).T
    PB, QB = 0.5 * (B + SB), 0.5 * (B - SB)
    PPB = 0.5 * (PB + apply_S(curve, PB.T).T)
    PQB = 0.5 * (QB + apply_S(curve, QB.T).T)
    HB = conjugation_H(curve, B)
    SHB = apply_S(curve, HB.T).T
    HSH = conjugation_H(curve, SHB)
    HPH = conjugation_H(curve, 0.5 * (HB + SHB))
    HQH = conjugation_H(curve, 0.5 * (HB - SHB))
    M = lambda X: operator_matrix(curve, X, B)
    return {
        "p2_minus_p": np.abs(M(PPB) - M(PB)).max(),
        "pq": np.abs(M(PQB)).max(),
        "p_plus_q_minus_i": np.abs(M(PB + QB) - M(B)).max(),
        "s_residual": np.abs(M(SB).conj().T + M(HSH)).max(),
        "p_residual": np.abs(M(PB).conj().T - M(HQH)).max(),
        "q_residual": np.abs(M(QB).conj().T - M(HPH)).max(),
    }, M(SB)


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "square"])
def test_certificate_by_linearity_matches_the_direct_formulas(name):
    curve = curve_from_name(name, 512)
    rep = adjoint_residuals(curve, 32)
    direct, s_matrix = _direct_certificate(curve, 32)
    for key, value in direct.items():
        # absolute at rounding level; relative for the square's first-order 1e-2 residuals
        assert abs(getattr(rep, key) - value) <= max(1e-14, 1e-12 * value), key
    assert rep.s_matrix.shape == (32, 32)
    assert np.abs(rep.s_matrix - s_matrix).max() < 1e-13


def test_adjoint_sum_is_identity_adjoint(circle1024):
    # P* + Q* = (P + Q)* = I*; equivalent to the pairing matrix of I
    from siolab.cauchy import mode_basis, operator_matrix, centered_modes

    B = mode_basis(circle1024, centered_modes(16))
    SB = apply_S(circle1024, B.T).T
    PB, QB = 0.5 * (B + SB), 0.5 * (B - SB)
    M = lambda X: operator_matrix(circle1024, X, B)
    lhs = M(PB).conj().T + M(QB).conj().T
    assert np.abs(lhs - np.eye(16)).max() < 1e-12


# ------------------------------------------------------ Fourier representation

def test_fourier_roundtrip_bandlimited(circle512, rng):
    k = np.arange(-10, 11)
    coeff = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    f = np.exp(1j * np.outer(np.angle(circle512.nodes), k)) @ coeff
    rep = symbol_from_samples(circle512, f, 10)
    assert np.abs(rep.coefficients - coeff).max() < 1e-12
    resampled = symbol_from_coefficients(rep.coefficients, circle512).values
    assert np.abs(resampled - f).max() < 1e-10
    assert rep.coefficient_window(3, 3)[0] == pytest.approx(coeff[13])
    assert not rep.coefficient_window(95, 99).any()


def test_fourier_rejects_aliasing():
    with pytest.raises(ValueError, match="aliasing"):
        symbol_from_samples(make_unit_circle(16), np.ones(16), 8)


def _memo_stack(curve, rng):
    """64 smooth columns for the split: trig polynomials and rational functions."""
    return np.column_stack(
        [random_trig_polynomial(curve, rng, d) for d in (0, 3, 12, 40) * 10]
        + [v for _, v in rational_corpus(curve, rng, count=24)]
    )


@pytest.mark.parametrize("order", [(1, 4, 64), (64, 4, 1)])
def test_split_on_a_warm_curve_is_bitwise_the_fresh_curve_result(order):
    # the remainder spectrum depends on the curve alone, so keeping it changes no bit
    warm = curve_from_name("ellipse:2,1", 2048)
    F = _memo_stack(warm, np.random.default_rng(5))
    for k in order:
        f = F[:, 0] if k == 1 else F[:, :k]
        fresh = curve_from_name("ellipse:2,1", 2048)
        assert np.array_equal(apply_S(warm, f), apply_S(fresh, f))
    assert warm._memo["remainder"].shape == (128, 128)


def test_split_spectrum_of_a_wiggly_curve_is_2048_square_within_its_cap():
    # the top quarter of C's modes reads 2.4e-12 at m = 2048, under 64 * 2048 eps
    warm = curve_from_name("perturbed-circle:0.3,12", 4096)
    F = np.column_stack([v for _, v in rational_corpus(warm, np.random.default_rng(0), count=4)])
    first = apply_S(warm, F)
    second = apply_S(warm, F[:, 0])
    C = warm._memo["remainder"]
    assert C.shape == (2048, 2048)
    assert C.nbytes <= cauchy.SPECTRUM_BYTES == 64 * 2**20
    fresh = curve_from_name("perturbed-circle:0.3,12", 4096)
    assert np.array_equal(first, apply_S(fresh, F))
    assert fresh._memo["remainder"] is not C
    assert np.array_equal(second, apply_S(fresh, F[:, 0]))


def test_split_memo_lives_and_dies_with_its_curve():
    curve = curve_from_name("ellipse:2,1", 512)
    f = rational_corpus(curve, np.random.default_rng(1), count=1)[0][1]
    apply_S(curve, f)
    curve_ref = weakref.ref(curve)
    spectrum_ref = weakref.ref(curve._memo["remainder"])
    del curve
    gc.collect()
    assert curve_ref() is None and spectrum_ref() is None

    # a live curve with the same n shares nothing with another one
    ellipse = curve_from_name("ellipse:2,1", 512)
    apply_S(ellipse, f)
    other = curve_from_name("perturbed-circle:0.1,5", 512)
    assert other._memo == {}
    g = rational_corpus(other, np.random.default_rng(2), count=1)[0][1]
    assert np.array_equal(apply_S(other, g),
                          apply_S(curve_from_name("perturbed-circle:0.1,5", 512), g))
    assert other._memo["remainder"] is not ellipse._memo["remainder"]


@pytest.mark.parametrize("name, m", [("ellipse:2,1", 64), ("perturbed-circle:0.3,12", 256)])
def test_remainder_fft_is_the_index_matrix_formula(name, m):
    # the in-place build against R gathered by (b - a) mod m and a copying fft2
    curve = curve_from_name(name, m)
    velocity = curve.complex_measure * (m / (2.0 * np.pi))
    diagonal = np.random.default_rng(4).standard_normal(m) + 0.5j
    half_cot = np.zeros(m)
    half_cot[1:] = 0.5 / np.tan(np.pi * np.arange(1, m) / m)
    tau = curve.nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        R = velocity[None, :] / (tau[None, :] - tau[:, None])
    R -= half_cot[(np.arange(m)[None, :] - np.arange(m)[:, None]) % m]
    R[np.arange(m), np.arange(m)] = diagonal
    assert np.array_equal(cauchy._remainder_coefficients(tau, velocity, diagonal),
                          np.fft.fft2(R) / (m * m))


@pytest.mark.parametrize("name, sizes", [
    ("circle", {1024: 64, 2048: 64, 4096: 64}),
    ("ellipse:2,1", {1024: 128, 2048: 128, 4096: 128}),
    ("perturbed-circle:0.1,5", {1024: 256, 2048: 256, 4096: 256}),
    # at n = 1024 the top quarter reads 6.2e-7 even at m = n: the full trapezoid rule
    ("perturbed-circle:0.3,12", {1024: 1024, 2048: 2048, 4096: 2048}),
])
def test_split_grid_size_of_each_smooth_zoo_curve(name, sizes):
    # m is a property of the curve; a change to the tail rule shows up here
    for n, m in sizes.items():
        assert cauchy._remainder_spectrum(curve_from_name(name, n)).shape == (m, m)


@pytest.mark.parametrize("n", [2047, 2049])
def test_split_odd_n_takes_the_grid_of_the_even_n(n):
    curve = curve_from_name("ellipse:2,1", n)
    even = curve_from_name("ellipse:2,1", 2048)
    assert cauchy._remainder_spectrum(curve).shape == cauchy._remainder_spectrum(even).shape
    # the folded spectrum puts the 128 grid nodes on the ellipse itself
    angle = 2.0 * np.pi * np.arange(128) / 128
    grid = cauchy._on_grid(curve.nodes, 128)
    assert np.abs(grid - (2.0 * np.cos(angle) + 1j * np.sin(angle))).max() < 1e-14
    tau = curve.nodes
    for pole, sign in ((3.0 + 1.0j, 1.0), (0.2j, -1.0)):
        f = 1.0 / (tau - pole)
        assert np.abs(apply_S(curve, f) - sign * f).max() <= 1e-12 * np.abs(f).max()


def test_split_at_65536_nodes():
    curve = curve_from_name("ellipse:2,1", 65536)
    tau = curve.nodes
    poles, signs = np.array([3.0 + 1.0j, -2.5, 0.2j, 0.5 - 0.3j]), np.array([1.0, 1.0, -1.0, -1.0])
    F = 1.0 / (tau[:, None] - poles[None, :])
    error = np.abs(apply_S(curve, F) - signs * F).max(axis=0) / np.abs(F).max(axis=0)
    assert error.max() <= 1e-12


def test_split_unresolved_within_the_cap_takes_the_dense_path(monkeypatch):
    # m = 128 leaves the wiggly curve unresolved, and m = 256 passes a 128 x 128 cap
    monkeypatch.setattr(cauchy, "SPECTRUM_BYTES", 16 * 128**2)
    curve = curve_from_name("perturbed-circle:0.3,12", 1024)
    assert s_path(curve) == "dense"
    assert s_path(curve_from_name("ellipse:2,1", 1024)) == "split"


def _full_stack_pairings(curve, basis_size):
    """G, M(SB), M(S^2 B) and M(HSHB) with S applied to the whole basis at once."""
    from siolab.cauchy import centered_modes, mode_basis, operator_matrix

    B = mode_basis(curve, centered_modes(basis_size))
    SB, SHB = np.split(apply_S(curve, np.concatenate([B, conjugation_H(curve, B)]).T).T, 2)
    M = lambda X: operator_matrix(curve, X, B)
    return M(B), M(SB), M(apply_S(curve, SB.T).T), M(conjugation_H(curve, SHB))


@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize("basis_size", [32, 20, 2])
@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "perturbed-circle:0.1,5"])
def test_streamed_certificate_pairs_as_the_full_stack(name, basis_size, n, monkeypatch):
    # each block's pairing fills its columns of G, M(SB), M(S^2 B) and M(HSHB)
    curve = curve_from_name(name, n)
    paired = []
    pair = cauchy.operator_matrix
    monkeypatch.setattr(cauchy, "operator_matrix",
                        lambda *args: paired.append(pair(*args)) or paired[-1])
    rep = adjoint_residuals(curve, basis_size)
    assert len(paired) == -(-basis_size // cauchy.ADJOINT_BLOCK)
    streamed = [np.hstack(m) for m in zip(*(np.split(p, 4, axis=1) for p in paired))]
    assert np.array_equal(rep.s_matrix, streamed[1])
    for got, full in zip(streamed, _full_stack_pairings(curve, basis_size)):
        assert got.shape == full.shape == (basis_size, basis_size)
        # the circle's S is bitwise per column; the full stack's 2 x 2 products
        # of a 2-mode basis take another BLAS kernel than the block's 2 x 8
        if curve.is_unit_circle and basis_size > 2:
            assert np.array_equal(got, full)
        else:
            assert np.abs(got - full).max() <= 1e-15 * np.abs(full).max()


def test_certificate_peak_memory_on_the_sio_check_shape():
    # the sio-circle certificate: 32 modes on 4096 nodes, 2 MiB per 32-row
    # array; the basis, one block's 32 applied rows and the weighted basis
    # are what it holds at once (the whole stacks took 20 MiB)
    curve = make_unit_circle(4096)
    adjoint_residuals(curve, 32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adjoint_residuals(curve, 32)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


def test_adjoint_residuals_refuse_an_aliasing_mode_basis():
    # 32 modes on 16 (or 31) circle nodes span at most that many dimensions
    for n in (16, 31, 63):
        with pytest.raises(ValueError, match="at least 64 nodes"):
            adjoint_residuals(make_unit_circle(n), 32)
    with pytest.raises(ValueError, match="at least 128 nodes"):
        adjoint_residuals(make_unit_circle(64), 64)
    assert adjoint_residuals(make_unit_circle(64), 32).s_residual < 1e-13


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "perturbed-circle:0.1,5",
                                  "perturbed-circle:0.3,12", "square"])
def test_apply_S_stack_matches_one_column_calls(name):
    # one path per curve: fft (bitwise), split (one operator per curve, so
    # columns differ by the rounding of the products with C alone) and dense
    curve = curve_from_name(name, 1024)
    rng = np.random.default_rng(3)
    F = np.column_stack(
        [random_trig_polynomial(curve, rng, d) for d in (0, 3, 12, 40)]
        + [v for _, v in rational_corpus(curve, rng, count=3)]
    )
    stack = apply_S(curve, F)
    columns = np.column_stack([apply_S(curve, F[:, j]) for j in range(F.shape[1])])
    assert stack.shape == F.shape
    path = s_path(curve)
    if path == "fft":
        assert np.array_equal(stack, columns)
    elif path == "split":
        gap = np.abs(stack - columns).max(axis=0) / np.abs(columns).max(axis=0)
        assert gap.max() <= 1e-14
    else:
        assert np.abs(stack - columns).max() <= 1e-12 * np.abs(F).max()
