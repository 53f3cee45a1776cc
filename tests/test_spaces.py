import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

import siolab.spaces as spaces
from siolab.cli import ExperimentConfig, run_norm
from siolab.curves import curve_from_name
from siolab.corpus import random_trig_polynomial
from siolab.curves import curve_from_name, make_unit_circle
from siolab.exponents import (
    ExponentFunction,
    exponent_constant,
    exponent_from_preset,
)
from siolab.spaces import (
    luxemburg_norm,
    modular,
    multiplier_norm_lower,
    multiplier_norm_via_theorem,
    norm_value,
    unit_ball_check,
)
from siolab.toeplitz import symbol_from_preset

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------- modular

def test_modular_constant(circle1024):
    p = exponent_constant(2.0, 1024)
    assert modular(circle1024, np.ones(1024), p) == pytest.approx(TWO_PI, abs=1e-10)


def test_modular_pure_sup(circle1024):
    p = exponent_constant(np.inf, 1024)
    assert modular(circle1024, 3.0 * np.ones(1024), p) == 3.0


def test_modular_against_refined_grid_oracle():
    # same integrand evaluated on a 16x finer node set
    def value(n):
        c = make_unit_circle(n)
        theta = np.angle(c.nodes)
        p = ExponentFunction(2.0 + np.abs(np.sin(theta)))
        return modular(c, np.abs(np.cos(theta)), p)

    assert value(4096) == pytest.approx(value(65536), rel=1e-6)


def test_modular_overflow_is_inf(circle512):
    p = exponent_constant(200.0, 512)
    assert modular(circle512, 1e30 * np.ones(512), p) == np.inf


# ---------------------------------------------------------- luxemburg norm

def test_norm_constant_function_closed_form(circle1024):
    # ||A chi_E||_p = A |E|^(1/p)
    for p_val, amp, width in [(2.0, 1.0, 1024), (4.0, 3.5, 256), (1.5, 0.2, 100)]:
        p = exponent_constant(p_val, 1024)
        f = np.zeros(1024, dtype=complex)
        f[:width] = amp
        measure = width * TWO_PI / 1024
        res = luxemburg_norm(circle1024, f, p)
        assert res.value == pytest.approx(amp * measure ** (1.0 / p_val), rel=1e-10)
        assert abs(res.modular_at_value - 1.0) <= 1e-10


def test_norm_zero_function(circle512):
    res = luxemburg_norm(circle512, np.zeros(512), exponent_constant(3.0, 512))
    assert res.value == 0.0
    assert res.certified


def test_norm_infinite_exponent(circle512):
    f = np.linspace(0, 2, 512).astype(complex)
    res = luxemburg_norm(circle512, f, exponent_constant(np.inf, 512))
    assert res.value == pytest.approx(2.0, rel=1e-12)
    assert res.modular_at_value == pytest.approx(1.0, abs=1e-12)


def test_norm_two_piece_exponent_scalar_oracle(circle1024):
    # equal halves by node index: pi / lam^2 + pi / lam^4 = 1
    vals = np.where(np.arange(1024) < 512, 2.0, 4.0)
    p = ExponentFunction(vals)
    res = luxemburg_norm(circle1024, np.ones(1024), p)
    oracle = brentq(lambda lam: np.pi / lam**2 + np.pi / lam**4 - 1.0, 0.5, 10.0,
                    xtol=1e-14)
    assert res.value == pytest.approx(oracle, abs=1e-8)
    assert res.bisection_iterations > 0


def _fixed_point_corpus(curve):
    """100 random functions, cycling through two constant and two variable exponents."""
    rng = np.random.default_rng(11)
    theta = np.angle(curve.nodes)
    presets = [
        exponent_constant(2.0, 512),
        exponent_constant(3.7, 512),
        ExponentFunction(2.0 + np.abs(np.sin(theta))),
        ExponentFunction(np.where(np.arange(512) % 3 == 0, 1.5, 4.0)),
    ]
    for i in range(100):
        f = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        yield f, presets[i % len(presets)]


def test_norm_fixed_point_random_corpus(circle512):
    for f, p in _fixed_point_corpus(circle512):
        res = luxemburg_norm(circle512, f, p)
        assert 0.0 < res.value < np.inf
        assert abs(res.modular_at_value - 1.0) <= 1e-10
        assert res.certified
        # independent recomputation of the modular at the returned value
        assert modular(circle512, f / res.value, p) == pytest.approx(1.0, abs=1e-9)


def test_norm_newton_root_on_the_random_corpus(circle512):
    # a handful of Newton steps in log(lambda) take the modular to rounding level
    steps = []
    for f, p in _fixed_point_corpus(circle512):
        if np.all(p.values == p.values[0]):
            continue  # closed form, no root search
        res = luxemburg_norm(circle512, f, p)
        steps.append(res.bisection_iterations)
        assert abs(res.modular_at_value - 1.0) <= 1e-14
    assert len(steps) == 50
    assert 0 < min(steps) and max(steps) <= 8


@pytest.mark.parametrize("which", ["2+abs(sin)", "two-piece", "inf-nodes"])
def test_norm_homogeneous_from_1e_minus_300_to_1e300(circle512, which):
    theta = np.angle(circle512.nodes)
    with_inf = np.full(512, 2.0)
    with_inf[::8] = np.inf
    p = ExponentFunction({
        "2+abs(sin)": 2.0 + np.abs(np.sin(theta)),
        "two-piece": np.where(np.arange(512) < 256, 2.0, 4.0),
        "inf-nodes": with_inf,
    }[which])
    rng = np.random.default_rng(4)
    f = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    base = luxemburg_norm(circle512, f, p).value
    for c in (1e-300, -3.7e-211, 1e-100j, 0.3, 7.0, -2.5e99, 6.1e211j, 1e300):
        res = luxemburg_norm(circle512, c * f, p)
        assert res.certified
        assert res.value == pytest.approx(abs(c) * base, rel=1e-14)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_norm_wide_exponent_spread_and_many_decades(circle1024, scale):
    # p from 1.01 to 41 and |f| from 1e-50 to 1e50: Newton in log(lambda)
    # needs no bracket and still takes at most 8 steps
    theta = np.angle(circle1024.nodes)
    p = exponent_from_preset("1.01+40*abs(cos)", circle1024)
    for k, phase in [(1, 0.0), (3, 0.7), (7, 1.9)]:
        f = 10.0 ** (50.0 * np.sin(k * theta + phase)) * np.exp(1j * theta)
        res = luxemburg_norm(circle1024, scale * f, p)
        assert res.certified and 0.0 < res.value < np.inf
        assert 0 < res.bisection_iterations <= 8
        assert res.value == pytest.approx(scale * luxemburg_norm(circle1024, f, p).value,
                                          rel=1e-14)


def test_run_norm_on_the_benchmark_norm_command():
    # the lab-mix norm command: circle, n = 4096, 2+abs(sin), abs-cos
    cfg = ExperimentConfig(command="norm", curve="circle", n_nodes=4096,
                           exponent="2+abs(sin)", function="abs-cos")
    results, _, _, _, fault = run_norm(cfg, curve_from_name(cfg.curve, cfg.n_nodes))
    assert fault is None
    assert abs(results["modular_at_value"] - 1.0) <= 1e-14
    assert 0 < results["iterations"] <= 8


def test_norm_with_infinity_nodes(circle512):
    vals = np.full(512, 2.0)
    vals[::8] = np.inf
    p = ExponentFunction(vals)
    f = np.ones(512, dtype=complex) * 5.0
    res = luxemburg_norm(circle512, f, p)
    assert abs(res.modular_at_value - 1.0) <= 1e-10
    # sup part alone forces the norm to at least max |f| on the infinity set
    assert res.value >= 5.0


def test_norm_of_infinite_samples_is_inf(circle512):
    f = np.ones(512, dtype=complex)
    f[3] = np.inf
    res = luxemburg_norm(circle512, f, exponent_constant(2.0, 512))
    assert res.value == np.inf and res.modular_at_value == np.inf
    assert res.certified


@pytest.mark.parametrize("p_spec", ["2", "2+abs(sin)"])
def test_norm_past_the_float_range_is_inf_and_not_certified(circle512, p_spec):
    # |f| = 1.4e308 is finite, its norm is not: closed form and Newton search
    p = exponent_from_preset(p_spec, circle512)
    f = np.full(512, 1e308 + 1e308j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = luxemburg_norm(circle512, f, p)
    assert res.value == np.inf
    assert not res.certified


@pytest.mark.parametrize("p_spec", ["2", "2+abs(sin)"])
def test_norm_of_subnormal_samples_is_certified(circle512, p_spec):
    # lambda = 2.5e-320 keeps 13 bits; the certificate is judged in units of max|f|
    p = exponent_from_preset(p_spec, circle512)
    res = luxemburg_norm(circle512, np.full(512, 1e-320), p)
    assert res.certified
    assert abs(res.modular_at_value - 1.0) <= 1e-14
    unit = luxemburg_norm(circle512, np.ones(512), p).value
    assert res.value == pytest.approx(1e-320 * unit, rel=1e-3)


def test_norm_reports_a_failed_certificate(circle512):
    # (f / lam)^1e308 underflows to 0 or overflows to inf for every lam near 2,
    # so no root step brings the modular near 1
    f = np.full(512, 2.0, dtype=complex)
    p = exponent_constant(1e308, 512)
    res = luxemburg_norm(circle512, f, p)
    assert 0.0 < res.value < np.inf
    assert abs(res.modular_at_value - 1.0) > 1e-10
    assert not res.certified
    assert norm_value(circle512, f, p) == res.value  # returned, not raised


# ------------------------------------------------------------- unit ball

@pytest.mark.parametrize("p_spec", ["2+abs(sin)", "step:2,inf", "3"])
def test_norms_leave_their_inputs_unchanged(p_spec):
    # with no infinite exponent the modular reads p and the weights in place
    curve = curve_from_name("circle", 512)
    p = exponent_from_preset(p_spec, curve)
    f = np.cos(3.0 * np.angle(curve.nodes)) + 0.5j
    saved = [f.copy(), p.values.copy(), curve.nodes.copy(), curve.arc_weights.copy()]
    luxemburg_norm(curve, f, p)
    modular(curve, f, p)
    unit_ball_check(curve, f, p)
    for before, after in zip(saved, [f, p.values, curve.nodes, curve.arc_weights]):
        assert np.array_equal(before, after)


@pytest.mark.parametrize("p_spec", ["1.5", "2", "4", "2+abs(sin)", "step:2,inf"])
@pytest.mark.parametrize("name, n", [("circle", 4096), ("ellipse:2,1", 1001)])
def test_stacked_norms_are_bitwise_the_norms_of_the_rows(monkeypatch, p_spec, name, n):
    # blocks of 3 rows, so the zero, infinite and extreme rows share blocks
    # with closed-form rows; the closed form holds for constant exponents,
    # and every row of the others takes luxemburg_norm
    monkeypatch.setattr(spaces, "NORM_BLOCK", 3 * n)
    curve = curve_from_name(name, n)
    p = exponent_from_preset(p_spec, curve)
    F = random_trig_polynomial(curve, np.random.default_rng(1), degree=12, count=24)
    F[2] = 0.0
    F[4, 7] = np.inf
    F[6] *= 1e-300
    F[8] *= 1e300
    got = norm_value(curve, F, p)
    assert got.shape == (24,)
    want = [norm_value(curve, f, p) for f in F]
    assert got.tolist() == want
    assert want[2] == 0.0 and want[4] == np.inf
    with pytest.raises(ValueError, match="node counts differ"):
        norm_value(curve, F[:, 1:], p)


@pytest.mark.parametrize("p_val", [1.5, 2.0, 4.0])
def test_closed_form_norm_is_bitwise_the_formula(circle1024, p_val):
    # value = max|f| (sum (|f|/max|f|)^p w)^(1/p), and its certificate the
    # modular at that value with the exponent read node by node
    f = random_trig_polynomial(circle1024, np.random.default_rng(9), degree=12)
    p = exponent_constant(p_val, 1024)
    v = np.abs(f)
    vmax = v.max()
    v /= vmax
    scale = np.sum(v**p_val * circle1024.arc_weights) ** (1.0 / p_val)
    res = luxemburg_norm(circle1024, f, p)
    assert res.value == float(vmax * scale)
    assert res.modular_at_value == float(np.sum((v / scale) ** p.values * circle1024.arc_weights))
    assert res.bisection_iterations == 0


def test_unit_ball_examples(circle1024):
    p = exponent_constant(2.0, 1024)
    zero = unit_ball_check(circle1024, np.zeros(1024), p)
    assert zero.modular_le_one and zero.norm_le_one and zero.consistent
    big = unit_ball_check(circle1024, np.ones(1024), p)  # modular 2 pi > 1
    assert not big.modular_le_one and not big.norm_le_one and big.consistent
    f = np.cos(np.angle(circle1024.nodes)) + 0.3
    scaled = f / norm_value(circle1024, f, p)
    ball = unit_ball_check(circle1024, scaled, p)
    assert ball.consistent


# ----------------------------------------------------------------- Hoelder

def test_holder_constants_ratio_one(circle1024, holder_ratio):
    n = 1024
    lhs, rhs, ratio, fault = holder_ratio(
        circle1024,
        np.ones(n),
        np.ones(n),
        exponent_constant(4.0, n),
        exponent_constant(2.0, n),
        exponent_constant(4.0, n),
    )
    assert lhs == pytest.approx(np.sqrt(TWO_PI), rel=1e-12)
    assert rhs == pytest.approx(TWO_PI ** 0.25 * TWO_PI ** 0.25, rel=1e-12)
    assert ratio == pytest.approx(1.0, rel=1e-10)
    assert not fault


def test_holder_disjoint_supports(circle1024, holder_ratio):
    n = 1024
    f = np.zeros(n, complex)
    g = np.zeros(n, complex)
    f[: n // 2] = 1.0
    g[n // 2 :] = 1.0
    lhs, _, ratio, fault = holder_ratio(
        circle1024, f, g,
        exponent_constant(4.0, n), exponent_constant(2.0, n), exponent_constant(4.0, n),
    )
    assert lhs == 0.0 and ratio == 0.0 and not fault


def test_holder_randomized_ratio_bound(circle512, rng, holder_ratio):
    n = 512
    theta = np.angle(circle512.nodes)
    triples = [
        (exponent_constant(4.0, n), exponent_constant(4.0, n)),
        (exponent_constant(3.0, n), exponent_constant(6.0, n)),
        (ExponentFunction(2.0 + np.abs(np.sin(theta))),
         ExponentFunction(3.0 + np.cos(theta))),
    ]
    worst = 0.0
    for p, r in triples:
        q = ExponentFunction(1.0 / (1.0 / p.values + 1.0 / r.values))
        for _ in range(60):
            k = np.arange(-6, 7)
            f = np.exp(1j * np.outer(theta, k)) @ (rng.standard_normal(13) + 1j * rng.standard_normal(13))
            g = np.exp(1j * np.outer(theta, k)) @ (rng.standard_normal(13) + 1j * rng.standard_normal(13))
            worst = max(worst, holder_ratio(circle512, f, g, p, q, r)[2])
    assert worst <= 2.0 + 1e-10


def test_holder_rejects_bad_triple(circle512, holder_ratio):
    n = 512
    p, q = exponent_constant(4.0, n), exponent_constant(2.0, n)
    with pytest.raises(ValueError, match="1/q"):
        holder_ratio(circle512, np.ones(n), np.ones(n), p, q, exponent_constant(3.0, n))
    # 1/r is off by 1e-10, far above the rounding of conjugate_exponent_r
    r = ExponentFunction(np.full(n, 1.0 / (0.25 + 1e-10)))
    with pytest.raises(ValueError, match="1/q"):
        holder_ratio(circle512, np.ones(n), np.ones(n), p, q, r)


# ------------------------------------------------------------- multiplier

def test_multiplier_theorem_constant_symbol(circle1024):
    n = 1024
    p, q = exponent_constant(4.0, n), exponent_constant(2.0, n)
    assert multiplier_norm_via_theorem(circle1024, np.ones(n), p, q) == pytest.approx(
        TWO_PI ** 0.25, rel=1e-10
    )


def test_multiplier_theorem_p_equals_q(circle1024):
    n = 1024
    p = exponent_from_preset("2+abs(sin)", circle1024)
    a = 1.0 + np.cos(np.angle(circle1024.nodes)) ** 2
    assert multiplier_norm_via_theorem(circle1024, a, p, p) == pytest.approx(
        np.abs(a).max(), rel=1e-12
    )


def test_multiplier_theorem_variable_bounded_symbol(circle1024):
    p = exponent_from_preset("3+abs(sin)", circle1024)
    q = exponent_constant(2.0, 1024)
    a = 1.0 + np.cos(np.angle(circle1024.nodes)) ** 2
    assert np.isfinite(multiplier_norm_via_theorem(circle1024, a, p, q))


def test_multiplier_lower_constant_symbol(circle1024):
    n = 1024
    p, q = exponent_constant(4.0, n), exponent_constant(2.0, n)
    lower = multiplier_norm_lower(circle1024, np.ones(n), p, q).lower_bound
    assert lower == pytest.approx(TWO_PI ** 0.25, rel=1e-9)


def test_multiplier_lower_indicator_symbol(circle1024):
    n = 1024
    p, q = exponent_constant(4.0, n), exponent_constant(2.0, n)
    a = np.zeros(n, complex)
    a[100:228] = 1.0  # |E| = 128 * 2 pi / n
    measure = 128 * TWO_PI / n
    lower = multiplier_norm_lower(circle1024, a, p, q).lower_bound
    assert lower == pytest.approx(measure ** 0.25, rel=1e-8)


def test_multiplier_lower_variable_within_allowance(circle1024):
    p = exponent_from_preset("3+abs(sin)", circle1024)
    q = exponent_constant(2.0, 1024)
    a = 1.0 + np.cos(np.angle(circle1024.nodes)) ** 2
    lower = multiplier_norm_lower(circle1024, a, p, q).lower_bound
    theorem = multiplier_norm_via_theorem(circle1024, a, p, q)
    assert lower <= theorem * 1.05
    assert lower >= theorem * 0.95


@pytest.mark.parametrize("curve_name, n, p_spec, q_spec, symbol, exact", [
    ("circle", 4096, "4", "2", "one-plus-cos2", 2.5541550),
    ("circle", 4096, "2+abs(sin)", "2", "one-plus-cos2", 2.0745668),
    ("ellipse:2,1", 4096, "2+abs(sin)", "2", "cos", 1.0560625),
    ("circle", 4096, "step:2,3", "1.5", "trig-random:5", 7.6031382),
    ("circle", 1024, "2", "2", "cos", 1.0),
    ("circle", 1024, "4", "4", "cos", 1.0),
    # the power method stalled at 3.4799794 here, and from an arc at 3.311:
    # in s = w |u|^p the problem is concave and has this one maximum
    ("circle", 1024, "3", "step:1.2,2.5", "singular:-0.3", 3.4799805),
])
def test_multiplier_bracket_holds_the_exact_norm(curve_name, n, p_spec, q_spec, symbol, exact):
    curve = curve_from_name(curve_name, n)
    p, q = exponent_from_preset(p_spec, curve), exponent_from_preset(q_spec, curve)
    a = symbol_from_preset(symbol, 300, seed=0).values(curve)
    bounds = multiplier_norm_lower(curve, a, p, q)
    assert bounds.lower_bound <= bounds.upper_bound <= bounds.lower_bound * (1.0 + 1e-10)
    assert bounds.lower_bound == pytest.approx(exact, abs=5e-8)
    if p.is_constant and q.is_constant:  # the discrete norm is ||a||_r
        assert bounds.lower_bound == pytest.approx(bounds.theorem_value, rel=1e-12)


@pytest.mark.parametrize("curve_name, n, p_spec, q_spec, symbol, K", [
    ("circle", 4096, "4", "2", "one-plus-cos2", 1.0),
    ("circle", 4096, "2+abs(sin)", "2", "one-plus-cos2", 4 / 3),
    ("ellipse:2,1", 4096, "2+abs(sin)", "2", "cos", 4 / 3),
    ("circle", 4096, "step:2,3", "1.5", "trig-random:5", 5 / 4),
    ("circle", 4096, "step:2,4", "1.2", "trig-random:3", 13 / 10),
    ("ellipse:2,1", 4096, "logsmooth:3,1", "1.5", "cos", 1.1154),
    ("circle", 4096, "3", "step:1.2,2.5", "one-plus-cos2", 43 / 30),
    ("circle", 4096, "4+abs(sin)", "1.1", "trig-random:7", 1.055),
])
def test_multiplier_lower_within_the_holder_constant(curve_name, n, p_spec, q_spec, symbol, K):
    curve = curve_from_name(curve_name, n)
    p, q = exponent_from_preset(p_spec, curve), exponent_from_preset(q_spec, curve)
    a = symbol_from_preset(symbol, 300, seed=0).values(curve)
    bounds = multiplier_norm_lower(curve, a, p, q)
    assert bounds.holder_constant == pytest.approx(K, abs=1e-4)
    if p.is_constant and q.is_constant:
        assert bounds.holder_constant == 1.0
    assert 0.0 < bounds.lower_bound <= bounds.theorem_value * bounds.holder_constant
    assert bounds.lower_bound <= bounds.upper_bound <= bounds.lower_bound * (1.0 + 1e-10)
    assert bounds.upper_bound <= bounds.theorem_value * bounds.holder_constant * (1.0 + 1e-9)


def test_multiplier_lower_skips_infinite_samples(circle512):
    # inf at a single node (integrable singularity sampled on its peak) must
    # not poison the bound; candidates touching it certify nothing
    n = 512
    p, q = exponent_constant(4.0, n), exponent_constant(2.0, n)
    a = np.ones(n, dtype=complex)
    a[0] = np.inf
    lower = multiplier_norm_lower(circle512, a, p, q).lower_bound
    assert np.isfinite(lower)
    assert lower >= (TWO_PI * (1 - 1.0 / n)) ** 0.25 * 0.99


def test_multiplier_lower_rejects_dominance_violation(circle512):
    with pytest.raises(ValueError, match="dominance"):
        multiplier_norm_lower(
            circle512, np.ones(512),
            exponent_constant(2.0, 512), exponent_constant(4.0, 512),
        )


# ------------------------------------------------------------ norm axioms

def _axiom_setup():
    curve = make_unit_circle(64)
    theta = np.angle(curve.nodes)
    exponents = [
        exponent_constant(2.0, 64),
        exponent_constant(5.0, 64),
        ExponentFunction(1.5 + np.abs(np.sin(theta))),
    ]
    return curve, exponents


complex_vec = arrays(
    np.complex128,
    64,
    elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=40, deadline=None)
@given(f=complex_vec, scale=st.floats(min_value=1e-3, max_value=1e3), which=st.integers(0, 2))
def test_axiom_homogeneity(f, scale, which):
    curve, exponents = _axiom_setup()
    p = exponents[which]
    a = norm_value(curve, scale * f, p)
    b = scale * norm_value(curve, f, p)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(f=complex_vec, g=complex_vec, which=st.integers(0, 2))
def test_axiom_triangle(f, g, which):
    curve, exponents = _axiom_setup()
    p = exponents[which]
    assert norm_value(curve, f + g, p) <= (
        norm_value(curve, f, p) + norm_value(curve, g, p) + 1e-10
    )


@settings(max_examples=40, deadline=None)
@given(f=complex_vec, u=arrays(np.float64, 64, elements=st.floats(0.0, 1.0)), which=st.integers(0, 2))
def test_axiom_lattice(f, u, which):
    curve, exponents = _axiom_setup()
    p = exponents[which]
    assert norm_value(curve, f * u, p) <= norm_value(curve, f, p) + 1e-10


def test_axiom_positivity():
    curve, exponents = _axiom_setup()
    for p in exponents:
        assert norm_value(curve, np.zeros(64), p) == 0.0
        f = np.zeros(64, complex)
        f[10] = 1e-6
        assert norm_value(curve, f, p) > 0.0


def test_axiom_fatou_truncations(circle512):
    rng = np.random.default_rng(5)
    f = np.exp(4.0 * rng.standard_normal(512))  # large dynamic range, nonnegative
    p = exponent_from_preset("2+abs(sin)", circle512)
    full = norm_value(circle512, f, p)
    previous = 0.0
    for cut in (1.0, 4.0, 16.0, 64.0, np.inf):
        value = norm_value(circle512, np.minimum(f, cut), p)
        assert value >= previous - 1e-10
        previous = value
    assert previous == pytest.approx(full, rel=1e-10)


def test_embedding_constant(circle512, rng):
    # q <= p nodewise implies ||f||_q <= (1 + |curve|) ||f||_p
    theta = np.angle(circle512.nodes)
    p = ExponentFunction(3.0 + np.abs(np.sin(theta)))
    q = exponent_constant(2.0, 512)
    K = 1.0 + circle512.arc_weights.sum()
    for _ in range(25):
        f = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        assert norm_value(circle512, f, q) <= K * norm_value(circle512, f, p) + 1e-10


def test_duality_pairing_constant_exponent(circle512, rng):
    p = exponent_constant(3.0, 512)
    pp = exponent_constant(1.5, 512)  # conjugate: 1/3 + 2/3 = 1
    for _ in range(25):
        f = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        g = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        pairing = abs(np.sum(f * np.conj(g) * circle512.arc_weights))
        assert pairing <= norm_value(circle512, f, p) * norm_value(circle512, g, pp) * (
            1.0 + 1e-12
        )
