import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import siolab.cauchy as cauchy
import siolab.cli as cli
from siolab.cauchy import (
    _quadrature_S,
    _split_S,
    adjoint_residuals,
    apply_S,
    conjugation_H,
    riesz_projections,
    s_path,
)
from siolab.corpus import random_trig_polynomial, rational_corpus, rational_function
from siolab.curves import curve_from_name, make_ellipse, make_unit_circle
from siolab.toeplitz import Symbol


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
        ("circle", 4096, "circle", 1e-14),  # 1.1e-15
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
    # the circle runs the split with its exact remainder, C = [[i/2]]
    assert s_path(circle8192) == "circle"
    exact = apply_S(circle8192, f)
    split = _split_S(circle8192, f)
    assert np.array_equal(exact, split)


@pytest.mark.parametrize("n", [16, 511, 4096])
def test_circle_S_is_bitwise_the_sign_multiplier(n):
    # the oracle: nonnegative modes pass through, negative modes flip sign;
    # the split's (2/i)(i/2) fhat_0 restores mode 0 exactly
    curve = make_unit_circle(n)
    rng = np.random.default_rng(n)
    F = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    want = np.fft.ifft(np.fft.fft(F) * np.where(np.fft.fftfreq(n) >= 0.0, 1.0, -1.0))
    assert np.array_equal(apply_S(curve, F), want)
    for j in range(5):
        assert np.array_equal(apply_S(curve, F[j]), want[j])
    assert apply_S(curve, F, out=F) is F
    assert np.array_equal(F, want)


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
    assert s_path(make_unit_circle(256)) == "circle"


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


# --------------------------------------------------------- exact Plemelj limits
# By the residue theorem the Cauchy integral of a rational function has the
# interior boundary limit P f = (exterior-pole part) + (polynomial) and the
# negated exterior limit Q f = (interior-pole part): exact targets for S, as
# sio-check uses them. Off the curve nothing is summed.

def _limit_residuals(curve, f, pf):
    """max |P f - pf| and max |Q f - (f - pf)| over the nodes (per row)."""
    p_f, q_f = riesz_projections(curve, f)
    return np.abs(p_f - pf).max(axis=-1), np.abs(q_f - (f - pf)).max(axis=-1)


def test_offcurve_cauchy_formula(circle4096):
    # Cauchy's formula gives f(z) inside and 0 outside for f = 1 and f = tau, so
    # P f = f and Q f = 0; c / (tau - z) is all P for z outside, all Q inside
    for curve in (circle4096, curve_from_name("ellipse:2,1", 4096)):
        for f in (np.ones(4096, dtype=complex), curve.nodes.copy()):
            assert max(_limit_residuals(curve, f, f)) < 1e-12
        outside = rational_function(curve, [4.0 - 1.0j], [1.0])
        inside = rational_function(curve, [0.4 - 0.2j], [1.0])
        assert max(_limit_residuals(curve, outside, outside)) < 1e-12
        assert max(_limit_residuals(curve, inside, np.zeros_like(inside))) < 1e-12


def test_offcurve_series_oracle(circle4096):
    rng = np.random.default_rng(4)
    k = np.arange(-6, 7)
    coeff = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    f = np.exp(1j * np.outer(np.angle(circle4096.nodes), k)) @ coeff
    # the analytic part as a power series: sum_{k >= 0} c_k tau^k
    oracle = sum(coeff[6 + m] * circle4096.nodes**m for m in range(0, 7))
    assert max(_limit_residuals(circle4096, f, oracle)) < 1e-12


def test_offcurve_warns_near_curve(circle512):
    # 512 nodes do not resolve a pole 0.01 off the circle (two node spacings
    # are 0.025): the exact limits expose it far above the circle threshold, so
    # sio-check's judgement would fault; at the corpus's distances they read
    # rounding
    for z in (1.01, 0.99, 1.75, 0.25):
        f = rational_function(circle512, [z], [1.0])
        plus, minus = _limit_residuals(circle512, f, f if z > 1 else np.zeros_like(f))
        fault = cli._residual_fault("circle", {"rational": {"P": plus, "Q": minus}})
        if abs(z - 1.0) < 0.025:
            assert min(plus, minus) > 1.0
            assert fault.startswith("rational ")
        else:
            assert max(plus, minus) < 1e-14
            assert fault is None


def test_offcurve_stack_matches_one_function_calls():
    curve = make_ellipse(2.0, 1.0, 512)
    rng = np.random.default_rng(5)
    F = rng.standard_normal((3, 512)) + 1j * rng.standard_normal((3, 512))
    pf, qf = riesz_projections(curve, F)
    assert np.array_equal(qf, F - pf)  # Q f is f - P f, to the last bit
    # the split takes the stack in one pass, so rows agree to rounding
    for j in range(3):
        p1, q1 = riesz_projections(curve, F[j])
        assert np.abs(pf[j] - p1).max() <= 1e-13 * np.abs(F).max()
        assert np.abs(qf[j] - q1).max() <= 1e-13 * np.abs(F).max()


def test_offcurve_stack_keeps_the_node_and_near_curve_checks(circle512):
    # a near-curve pole in the stack shows in its own row only
    corpus = rational_corpus(circle512, np.random.default_rng(0), count=3)
    near = rational_function(circle512, [1.01], [1.0])
    F = np.stack([f for _, f, _ in corpus] + [near])
    exact = np.stack([pf for _, _, pf in corpus] + [near])
    plus, minus = _limit_residuals(circle512, F, exact)
    assert np.all(plus[:3] < 1e-14) and np.all(minus[:3] < 1e-14)
    assert plus[3] > 1.0 and minus[3] > 1.0
    fault = cli._residual_fault("circle", {"rational": {"P": plus.max(), "Q": minus.max()}})
    assert re.match(r"rational [PQ] residual", fault)


@pytest.mark.parametrize("bad", [np.nan, complex(0.2, np.inf), complex(np.nan, 0.1)])
def test_offcurve_rejects_non_finite_targets(circle512, bad):
    # a non-finite exact limit gives a non-finite residual; it must fault
    # wherever it sits among the groups, not compare false and pass
    _, f, pf = rational_corpus(circle512, np.random.default_rng(0), count=1)[0]
    pf = pf.copy()
    pf[17] = bad
    plus, minus = _limit_residuals(circle512, f, pf)
    assert not np.isfinite(plus) and not np.isfinite(minus)
    fault = cli._residual_fault("circle", {"projection": {"PQ": 1e-16},
                                        "rational": {"P": plus, "Q": minus}})
    assert fault.startswith("rational P residual")


def test_offcurve_takes_an_empty_target_array():
    for name in ("circle", "ellipse:2,1", "square"):
        curve = curve_from_name(name, 512)
        pf, qf = riesz_projections(curve, np.empty((0, 512), dtype=complex))
        assert pf.shape == qf.shape == (0, 512)
    assert rational_corpus(curve, np.random.default_rng(0), count=0) == []


def test_offcurve_peak_memory_on_the_sio_check_shape():
    # the sio-ellipse Plemelj step: P and Q of 4 functions on 2048 nodes; numpy
    # reports its allocations to tracemalloc, so the peak is exact (0.28 MiB)
    curve = curve_from_name("ellipse:2,1", 2048)
    corpus = rational_corpus(curve, np.random.default_rng(0), count=4)
    F = np.stack([f for _, f, _ in corpus])
    riesz_projections(curve, F)  # warm the curve's remainder spectrum
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        riesz_projections(curve, F)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2**19


def test_plemelj_exterior_pole_identity(circle8192):
    f = 1.0 / (circle8192.nodes - 2.5)
    plus, minus = _limit_residuals(circle8192, f, f)
    assert plus < 1e-13
    assert minus < 1e-13


def test_plemelj_monomial_limits(circle8192):
    f = modes(circle8192, 3)
    assert max(_limit_residuals(circle8192, f, f)) < 1e-12
    g = modes(circle8192, -3)  # a triple pole at the origin: all Q
    assert max(_limit_residuals(circle8192, g, np.zeros_like(g))) < 1e-12


def test_plemelj_raw_offsets_shrink(ellipse8192):
    # against the exact limits the split reads rounding, and the square's
    # first-order dense path halves its residual with each doubling of n
    f = 1.0 / (ellipse8192.nodes - (0.1 + 0.05j))
    assert max(_limit_residuals(ellipse8192, f, np.zeros_like(f))) < 1e-13
    raw = []
    for n in (256, 512, 1024):
        square = curve_from_name("square", n)
        g = 1.0 / (square.nodes - (0.1 + 0.05j))
        raw.append(max(_limit_residuals(square, g, np.zeros_like(g))))
    assert 1.8 < raw[0] / raw[1] < 2.2 and 1.8 < raw[1] / raw[2] < 2.2


def test_plemelj_on_the_circle_takes_offsets_past_2_directly(circle512):
    # the circle path is exact for a pole at any offset from the circle that the
    # nodes resolve, past 2 as well as below it
    for d in (0.75, 2.5, 10.0):
        z = (1.0 + d) * np.exp(0.3j)
        f = rational_function(circle512, [z], [1.0 + 0.5j])
        assert max(_limit_residuals(circle512, f, f)) < 1e-14
    f = rational_function(circle512, [0.25 * np.exp(0.3j)], [1.0 + 0.5j])
    assert max(_limit_residuals(circle512, f, np.zeros_like(f))) < 1e-14


def test_plemelj_rejects_bad_offsets(circle512):
    # the corpus retreats from the curve rather than place a pole nearer than
    # min_distance: f = c / (tau - z0) has min |tau - z0| = |c| / max |f|
    for distance in (0.75, 1.5, 5.0):
        corpus = rational_corpus(circle512, np.random.default_rng(1), count=6,
                                 min_distance=distance)
        for name, f, _ in corpus:
            if name.startswith("pole-out:"):
                assert abs(1.0 + 0.5j) / np.abs(f).max() >= distance
            elif name.startswith("pole-in:"):
                assert abs(0.7 - 0.2j) / np.abs(f).max() >= min(distance, 0.85)


@pytest.mark.parametrize("offsets", [[np.nan], [np.inf], [1e6], [300.0, 1e300]])
def test_plemelj_rejects_repeated_or_non_finite_offsets(circle512, offsets):
    # a pole offset from the curve that no retreat reaches is refused
    for distance in offsets:
        with pytest.raises(ValueError, match="no admissible pole"):
            rational_corpus(circle512, np.random.default_rng(0), count=3,
                            min_distance=distance)


@pytest.mark.parametrize("name, n", [("ellipse:2,1", 1024), ("square", 256),
                                     ("circle", 1024)])
def test_plemelj_stack_matches_one_function_calls(name, n):
    # sio-check judges its corpus as one stack; each row is the
    # one-function result, to rounding
    curve = curve_from_name(name, n)
    corpus = rational_corpus(curve, np.random.default_rng(3), count=4)
    F = np.stack([f for _, f, _ in corpus])
    exact = np.stack([pf for _, _, pf in corpus])
    stacked = np.array(_limit_residuals(curve, F, exact))
    single = np.array([_limit_residuals(curve, f, pf) for _, f, pf in corpus]).T
    assert np.abs(stacked - single).max() <= 1e-12 * np.abs(F).max()


@pytest.mark.parametrize("n", [64, 512, 4096])
def test_circle_plemelj_sums_match_the_direct_sum(n):
    # on the circle P is the exact FFT multiplier: it matches the residue sums
    # of the corpus and the nonnegative-mode sums of trig polynomials; at
    # n = 64 the exterior poles at radius 2 alias at 2^(-n/2)
    curve = make_unit_circle(n)
    rng = np.random.default_rng(6)
    corpus = rational_corpus(curve, rng, count=4)
    k = np.arange(-12, 13)
    coeff = rng.standard_normal((2, 25)) + 1j * rng.standard_normal((2, 25))
    waves = np.exp(1j * np.outer(k, np.angle(curve.nodes)))
    trig = coeff @ waves
    F = np.stack([f for _, f, _ in corpus] + list(trig))
    direct = np.stack([pf for _, _, pf in corpus]
                      + list(trig - coeff[:, k < 0] @ waves[k < 0]))
    plus, minus = _limit_residuals(curve, F, direct)
    bound = 1e-13 * np.abs(F).max() + 2.0 * 2.0 ** (-n / 2)
    assert plus.max() <= bound and minus.max() <= bound


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
    from siolab.cauchy import mode_basis, operator_matrix

    B = mode_basis(curve, basis_size)
    SB = apply_S(curve, B)
    PB, QB = 0.5 * (B + SB), 0.5 * (B - SB)
    PPB = 0.5 * (PB + apply_S(curve, PB))
    PQB = 0.5 * (QB + apply_S(curve, QB))
    HB = conjugation_H(curve, B)
    SHB = apply_S(curve, HB)
    HSH = conjugation_H(curve, SHB)
    HPH = conjugation_H(curve, 0.5 * (HB + SHB))
    HQH = conjugation_H(curve, 0.5 * (HB - SHB))
    W = np.conj(B) * curve.arc_weights
    M = lambda X: operator_matrix(W, X)
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
    from siolab.cauchy import mode_basis, operator_matrix

    B = mode_basis(circle1024, 16)
    SB = apply_S(circle1024, B)
    PB, QB = 0.5 * (B + SB), 0.5 * (B - SB)
    W = np.conj(B) * circle1024.arc_weights
    M = lambda X: operator_matrix(W, X)
    lhs = M(PB).conj().T + M(QB).conj().T
    assert np.abs(lhs - np.eye(16)).max() < 1e-12


# ------------------------------------------------------ Fourier representation

def test_fourier_roundtrip_bandlimited(circle512, rng):
    k = np.arange(-10, 11)
    coeff = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    f = np.exp(1j * np.outer(np.angle(circle512.nodes), k)) @ coeff
    rep = Symbol(coeff)
    assert np.abs(rep.values(circle512) - f).max() < 1e-10
    assert rep.coefficient_window(3, 3)[0] == pytest.approx(coeff[13])
    assert not rep.coefficient_window(95, 99).any()


def _memo_stack(curve, rng):
    """64 smooth rows for the split: trig polynomials and rational functions."""
    return np.stack(
        [random_trig_polynomial(curve, rng, d) for d in (0, 3, 12, 40) * 10]
        + [v for _, v, _ in rational_corpus(curve, rng, count=24)]
    )


@pytest.mark.parametrize("order", [(1, 4, 64), (64, 4, 1)])
def test_split_on_a_warm_curve_is_bitwise_the_fresh_curve_result(order):
    # the remainder spectrum depends on the curve alone, so keeping it changes no bit
    warm = curve_from_name("ellipse:2,1", 2048)
    F = _memo_stack(warm, np.random.default_rng(5))
    for k in order:
        f = F[0] if k == 1 else F[:k]
        fresh = curve_from_name("ellipse:2,1", 2048)
        assert np.array_equal(apply_S(warm, f), apply_S(fresh, f))
    assert warm._memo["remainder"].shape == (128, 128)


def test_split_spectrum_of_a_wiggly_curve_is_2048_square_within_its_cap():
    # the top quarter of C's modes reads 2.4e-12 at m = 2048, under 64 * 2048 eps
    warm = curve_from_name("perturbed-circle:0.3,12", 4096)
    corpus = rational_corpus(warm, np.random.default_rng(0), count=4)
    F = np.stack([v for _, v, _ in corpus])
    first = apply_S(warm, F)
    second = apply_S(warm, F[0])
    C = warm._memo["remainder"]
    assert C.shape == (2048, 2048)
    assert C.nbytes <= cauchy.SPECTRUM_BYTES == 64 * 2**20
    fresh = curve_from_name("perturbed-circle:0.3,12", 4096)
    assert np.array_equal(first, apply_S(fresh, F))
    assert fresh._memo["remainder"] is not C
    assert np.array_equal(second, apply_S(fresh, F[0]))


def test_conjugation_phase_lives_and_dies_with_its_curve():
    curve = curve_from_name("ellipse:2,1", 512)
    f = rational_corpus(curve, np.random.default_rng(1), count=1)[0][1]
    h = conjugation_H(curve, f)
    phase = curve._memo["phase"]
    assert np.array_equal(phase, np.exp(-1j * curve.tangent_angles))
    assert np.array_equal(h, phase * np.conj(f))
    # a second call reads the kept phase
    assert np.array_equal(conjugation_H(curve, f), h) and curve._memo["phase"] is phase
    curve_ref, phase_ref = weakref.ref(curve), weakref.ref(phase)
    del curve, phase
    gc.collect()
    assert curve_ref() is None and phase_ref() is None

    # a live curve with the same n shares nothing with another one
    ellipse = curve_from_name("ellipse:2,1", 512)
    conjugation_H(ellipse, f)
    other = curve_from_name("perturbed-circle:0.1,5", 512)
    assert other._memo == {}
    assert np.array_equal(conjugation_H(other, f),
                          np.exp(-1j * other.tangent_angles) * np.conj(f))
    assert other._memo["phase"] is not ellipse._memo["phase"]


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
    ("circle", {1024: 1, 2048: 1, 4096: 1}),
    ("ellipse:2,1", {1024: 128, 2048: 128, 4096: 128}),
    ("perturbed-circle:0.1,5", {1024: 256, 2048: 256, 4096: 256}),
    # at n = 1024 the top quarter reads 6.2e-7 even at m = n: the full trapezoid rule
    ("perturbed-circle:0.3,12", {1024: 1024, 2048: 2048, 4096: 2048}),
])
def test_split_grid_size_of_each_smooth_zoo_curve(name, sizes):
    # m is a property of the curve; a change to the tail rule shows up here
    for n, m in sizes.items():
        C = cauchy._remainder_spectrum(curve_from_name(name, n))
        assert C.shape == (m, m)
        if name == "circle":  # tau = e^{is}: the remainder is i/2 exactly
            assert np.array_equal(C, [[0.5j]])


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
    F = 1.0 / (tau[None, :] - poles[:, None])
    error = np.abs(apply_S(curve, F) - signs[:, None] * F).max(axis=1) / np.abs(F).max(axis=1)
    assert error.max() <= 1e-12


def test_split_unresolved_within_the_cap_takes_the_dense_path(monkeypatch):
    # m = 128 leaves the wiggly curve unresolved, and m = 256 passes a 128 x 128 cap
    monkeypatch.setattr(cauchy, "SPECTRUM_BYTES", 16 * 128**2)
    curve = curve_from_name("perturbed-circle:0.3,12", 1024)
    assert s_path(curve) == "dense"
    assert s_path(curve_from_name("ellipse:2,1", 1024)) == "split"


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "perturbed-circle:0.1,5", "square"])
def test_mode_basis_rows_do_not_depend_on_the_other_modes(name):
    # each row is its own chain of products with its own norm: within 1e-14
    # of the normalized power tau ** k of its centred mode
    from siolab.cauchy import mode_basis

    curve = curve_from_name(name, 4096)
    B = mode_basis(curve, 32)
    out = np.empty_like(B)
    assert mode_basis(curve, 32, out=out) is out
    assert np.array_equal(out, B)
    with pytest.raises(ValueError, match="out must be"):
        mode_basis(curve, 32, out=out[1:])
    for r, k in enumerate(range(-16, 16)):
        power = curve.nodes**k
        power /= np.sqrt(np.sum(np.abs(power) ** 2 * curve.arc_weights))
        assert np.abs(B[r] - power).max() <= 1e-14 * np.abs(power).max()


def _full_stack_pairings(curve, basis_size):
    """G, M(HSHB), M(SB) and M(S^2 B) with S applied to [B | HB] at once."""
    from siolab.cauchy import mode_basis, operator_matrix

    B = mode_basis(curve, basis_size)
    SB, SHB = np.split(apply_S(curve, np.concatenate([B, conjugation_H(curve, B)])), 2)
    W = np.conj(B) * curve.arc_weights
    M = lambda X: operator_matrix(W, X)
    return M(B), M(conjugation_H(curve, SHB)), M(SB), M(apply_S(curve, SB))


@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize("basis_size", [32, 20, 2])
@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "perturbed-circle:0.1,5"])
def test_certificate_pairs_as_the_full_stack(name, basis_size, n, monkeypatch):
    # the certificate's four pairings, G, M(HSHB), M(SB) and M(S^2 B), each of
    # the whole basis, are bitwise those of S applied to [B | HB] at once
    curve = curve_from_name(name, n)
    paired = []
    pair = cauchy.operator_matrix
    monkeypatch.setattr(cauchy, "operator_matrix",
                        lambda *args: paired.append(pair(*args)) or paired[-1])
    rep = adjoint_residuals(curve, basis_size)
    assert len(paired) == 4
    assert np.array_equal(rep.s_matrix, paired[2])
    for got, full in zip(paired, _full_stack_pairings(curve, basis_size)):
        assert got.shape == full.shape == (basis_size, basis_size)
        assert np.array_equal(got, full)


def test_certificate_peak_memory_on_the_sio_check_shape():
    # the sio-circle certificate: 32 modes on 4096 nodes, 2 MiB per 32-row
    # array; it holds the weighted basis W and a basis-sized workspace B,
    # into which S and H write (4.28 MiB)
    curve = make_unit_circle(4096)
    adjoint_residuals(curve, 32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adjoint_residuals(curve, 32)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4.71 * 2**20


def test_adjoint_residuals_refuse_an_aliasing_mode_basis():
    # 32 modes on 16 (or 31) circle nodes span at most that many dimensions
    for n in (16, 31, 63):
        with pytest.raises(ValueError, match="at least 64 nodes"):
            adjoint_residuals(make_unit_circle(n), 32)
    with pytest.raises(ValueError, match="at least 128 nodes"):
        adjoint_residuals(make_unit_circle(64), 64)
    assert adjoint_residuals(make_unit_circle(64), 32).s_residual < 1e-13


@pytest.mark.parametrize("name, path", [("circle", "circle"), ("ellipse:2,1", "split"),
                                        ("square", "dense")])
def test_apply_S_into_out_is_bitwise_the_allocating_call(name, path):
    # one function and a stack, each into a fresh array, into itself and into
    # a block of rows (as the certificate's workspace gives them)
    curve = curve_from_name(name, 1024)
    assert s_path(curve) == path
    rows = random_trig_polynomial(curve, np.random.default_rng(5), degree=12, count=6)
    for f in (rows[0], rows, np.asfortranarray(rows)):
        want = apply_S(curve, f)
        out = np.empty(f.shape, dtype=complex)
        assert apply_S(curve, f, out=out) is out
        assert np.array_equal(out, want)
        g = f.copy()
        assert apply_S(curve, g, out=g) is g
        assert np.array_equal(g, want)
        if f.ndim == 2:
            m = f.shape[0]
            block = np.zeros((2 * m, f.shape[1]), dtype=complex)
            apply_S(curve, f, out=block[m:])
            assert np.array_equal(block[m:], want)
            block[:m] = f
            apply_S(curve, block[:m], out=block[:m])
            assert np.array_equal(block[:m], want)


def test_apply_S_refuses_an_out_of_the_wrong_shape_or_dtype():
    curve = curve_from_name("ellipse:2,1", 256)
    f = np.ones((3, 256), dtype=complex)
    for out in (np.empty((4, 256), dtype=complex), np.empty(256, dtype=complex),
                np.empty((256, 3), dtype=complex), np.empty((3, 256)),
                np.empty((3, 256), dtype=np.complex64), [[0j] * 256] * 3):
        with pytest.raises(ValueError, match="out must be a complex array of shape"):
            apply_S(curve, f, out=out)
    with pytest.raises(ValueError, match="out must be"):
        apply_S(curve, f[0], out=np.empty((1, 256), dtype=complex))
    # a stack laid out one function per column is refused on every path, not
    # transformed along the wrong axis
    for name in ("circle", "ellipse:2,1", "square"):
        curve = curve_from_name(name, 256)
        for g in (np.ones((256, 3), dtype=complex), np.ones(255), np.ones(())):
            with pytest.raises(ValueError, match="one function per row"):
                apply_S(curve, g)
            with pytest.raises(ValueError, match="one function per row"):
                riesz_projections(curve, g)


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "square"])
def test_conjugation_H_into_out_is_bitwise_the_allocating_call(name):
    curve = curve_from_name(name, 1024)
    rows = random_trig_polynomial(curve, np.random.default_rng(6), degree=12, count=6)
    for f in (rows[0], rows, rows.T.copy().T):
        want = conjugation_H(curve, f)
        out = np.empty(f.shape, dtype=complex)
        assert conjugation_H(curve, f, out=out) is out
        assert np.array_equal(out, want)
        g = f.copy()
        assert conjugation_H(curve, g, out=g) is g
        assert np.array_equal(g, want)
    with pytest.raises(ValueError, match="out must be"):
        conjugation_H(curve, rows, out=np.empty(rows.shape))


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "perturbed-circle:0.1,5",
                                  "perturbed-circle:0.3,12", "square"])
def test_apply_S_stack_matches_one_column_calls(name):
    # one path per curve: circle (bitwise), split (one operator per curve, so
    # rows differ by the rounding of the products with C alone) and dense
    curve = curve_from_name(name, 1024)
    rng = np.random.default_rng(3)
    F = np.stack(
        [random_trig_polynomial(curve, rng, d) for d in (0, 3, 12, 40)]
        + [v for _, v, _ in rational_corpus(curve, rng, count=3)]
    )
    stack = apply_S(curve, F)
    rows = np.stack([apply_S(curve, f) for f in F])
    assert stack.shape == F.shape
    path = s_path(curve)
    if path == "circle":
        assert np.array_equal(stack, rows)
    elif path == "split":
        gap = np.abs(stack - rows).max(axis=1) / np.abs(rows).max(axis=1)
        assert gap.max() <= 1e-14
    else:
        assert np.abs(stack - rows).max() <= 1e-12 * np.abs(F).max()
