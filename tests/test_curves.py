import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ellipe

from siolab.curves import (
    CARLESON_CENTRES,
    TRIG_BLOCK,
    JordanCurve,
    carleson_constant,
    curve_from_name,
    curve_to_csv,
    make_ellipse,
    make_parametric_curve,
    make_square,
    make_unit_circle,
    trig_polynomial,
)

TWO_PI = 2.0 * np.pi


def portion_length(curve, t_index, epsilon):
    """Arc measure of the portion {tau : |tau - t| < epsilon} around node t."""
    d = np.abs(curve.nodes - curve.nodes[t_index])
    return float(curve.arc_weights[d < epsilon].sum())


def test_circle_total_length_and_weights():
    c = make_unit_circle(8)
    assert c.arc_weights.sum() == pytest.approx(TWO_PI, rel=1e-12)
    assert np.allclose(c.arc_weights, TWO_PI / 8)


def test_circle_tangent_at_first_node():
    c = make_unit_circle(1024)
    # tangent of the circle at 1 is i
    assert c.tangent_angles[0] == pytest.approx(np.pi / 2)


def test_circle_discrete_tangent_residual():
    c = make_unit_circle(1024)
    chord = np.roll(c.nodes, -1) - np.roll(c.nodes, 1)
    residual = np.abs(np.exp(1j * c.tangent_angles) - chord / np.abs(chord)).max()
    assert residual < 1e-4


def test_perturbed_circle_discrete_tangent_second_order():
    # O(h^2) agreement between stored angles and the symmetric difference
    res = {}
    for n in (512, 1024):
        e = curve_from_name("perturbed-circle:0.1,3", n)
        chord = np.roll(e.nodes, -1) - np.roll(e.nodes, 1)
        res[n] = np.abs(np.exp(1j * e.tangent_angles) - chord / np.abs(chord)).max()
    assert res[1024] < 1e-4
    assert res[1024] < res[512] / 2.5


def test_circle_rejects_small_n():
    with pytest.raises(ValueError):
        make_unit_circle(7)


def test_parametric_circle_matches_builtin():
    n = 256
    c = make_unit_circle(n)
    p = make_parametric_curve(
        lambda t: np.exp(2j * np.pi * t),
        lambda t: 2j * np.pi * np.exp(2j * np.pi * t),
        n,
    )
    assert np.abs(p.nodes - c.nodes).max() < 1e-12
    assert np.abs(p.arc_weights - c.arc_weights).max() < 1e-12
    assert np.abs(np.exp(1j * p.tangent_angles) - np.exp(1j * c.tangent_angles)).max() < 1e-12


def test_ellipse_perimeter_against_adaptive_quadrature():
    e = make_ellipse(2.0, 1.0, 4096)
    speed = lambda t: TWO_PI * np.hypot(2.0 * np.sin(TWO_PI * t), np.cos(TWO_PI * t))
    oracle, err = quad(speed, 0.0, 1.0, limit=200)
    assert err < 1e-9
    assert e.arc_weights.sum() == pytest.approx(oracle, rel=1e-6)


def test_square_perimeter_and_corner_jumps():
    n = 256
    s = make_square(n)
    assert s.arc_weights.sum() == pytest.approx(8.0, rel=1e-12)
    corners = [0, n // 4, n // 2, 3 * n // 4]
    for j in corners:
        before = s.tangent_angles[j]  # left limit at the corner
        after = s.tangent_angles[(j + 1) % n]
        jump = np.angle(np.exp(1j * (after - before)))
        assert jump == pytest.approx(np.pi / 2, abs=1e-12)
    with pytest.raises(ValueError):
        make_square(130)


def test_vanishing_derivative_rejected():
    with pytest.raises(ValueError, match="derivative"):
        make_parametric_curve(
            lambda t: np.exp(2j * np.pi * t),
            lambda t: np.sin(2 * np.pi * t) * np.exp(2j * np.pi * t),
            64,
        )


def test_non_finite_curve_rejected():
    # an overflowing speed once made the vanishing test's threshold infinite
    for spec in ("ellipse:1e308,1", "ellipse:inf,1", "ellipse:nan,1"):
        with pytest.raises(ValueError, match="derivative must be finite"):
            curve_from_name(spec, 64)
    c = make_unit_circle(64)
    for i in range(3):  # a nan node, arc weight or tangent angle
        parts = [c.nodes, c.arc_weights, c.tangent_angles]
        parts[i] = np.where(np.arange(64) == 5, np.nan, parts[i])
        with pytest.raises(ValueError, match="must be finite"):
            JordanCurve(*parts)


def test_curve_build_peak_memory():
    # ellipse:2,1 at n = 2048: a crossing check's complex temporaries over
    # every overlapping run pair at once once made it 3.8 MiB
    curve_from_name("ellipse:2,1", 2048)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        curve_from_name("ellipse:2,1", 2048)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**20


def test_curve_from_name_zoo():
    for spec in ("circle", "ellipse:2,1", "square", "perturbed-circle:0.1,5"):
        c = curve_from_name(spec, 256)
        assert c.n_nodes == 256
    with pytest.raises(ValueError):
        curve_from_name("lemniscate", 256)
    with pytest.raises(ValueError):
        curve_from_name("ellipse:2", 256)


def test_portion_whole_curve_and_closed_form(circle4096):
    c = circle4096
    assert portion_length(c, 0, 2.5) == pytest.approx(TWO_PI, rel=1e-12)
    # chord eps=1 captures the arc of half-angle 2 arcsin(1/2), length 2 pi / 3
    assert portion_length(c, 17, 1.0) == pytest.approx(2.0 * np.pi / 3.0, rel=1e-3)
    # below the node spacing the portion is the center node's own weight
    h = TWO_PI / 4096
    assert portion_length(c, 5, h / 10) == pytest.approx(h, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    t=st.integers(min_value=0, max_value=255),
    e1=st.floats(min_value=1e-3, max_value=2.5),
    e2=st.floats(min_value=1e-3, max_value=2.5),
)
def test_portion_monotone_in_epsilon(t, e1, e2):
    c = make_unit_circle(256)
    lo, hi = sorted((e1, e2))
    assert portion_length(c, t, lo) <= portion_length(c, t, hi) + 1e-15


def test_circle_ratio_curve_matches_closed_form():
    c = make_unit_circle(65536)
    eps = np.linspace(0.2, 2.0, 61)
    ratios = np.array([portion_length(c, 0, e) / e for e in eps])
    oracle = 4.0 * np.arcsin(eps / 2.0) / eps
    assert np.abs(ratios - oracle).max() < 1e-3


# 2 sqrt(3) E(3/4): the perimeter L of ellipse:2,1 times sqrt(3) / 4, reached
# at the centre +-i as eps comes down to the farthest distance 4 / sqrt(3)
ELLIPSE_CARLESON = 2.0 * np.sqrt(3.0) * ellipe(0.75)


def test_carleson_circle_pi(circle4096):
    # closed form: max of 4 arcsin(eps/2)/eps on (0, 2] is pi at eps = 2
    report = carleson_constant(circle4096)
    assert report.constant_estimate == pytest.approx(np.pi, rel=0.01)
    assert report.constant_estimate >= 2.0 - 0.1


def test_carleson_circle_estimate_is_pi_to_rounding(circle4096):
    # the winning portion by math.fsum: 2.8e-16 off, where one running sum of
    # 4096 weights missed pi by 6.8e-14 and a pairwise np.sum by 5.7e-16
    assert abs(carleson_constant(circle4096).constant_estimate - np.pi) / np.pi <= 2.9e-16


def test_carleson_peak_memory(circle4096):
    # the scan holds a few distance rows (the whole matrix took 6 MiB)
    carleson_constant(circle4096)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        carleson_constant(circle4096)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_carleson_dominates_samples(circle1024):
    report = carleson_constant(circle1024)
    for t in (3, 101, 800):
        for eps in (0.05, 0.7, 1.9):
            assert report.constant_estimate >= portion_length(circle1024, t, eps) / eps - 1e-12


def test_carleson_ellipse_closed_form(ellipse4096):
    report = carleson_constant(ellipse4096)
    assert abs(report.constant_estimate - ELLIPSE_CARLESON) <= 1e-6
    assert min(abs(report.argmax_point - 1j), abs(report.argmax_point + 1j)) <= 1e-2
    assert abs(report.argmax_radius - 4.0 / np.sqrt(3.0)) <= 1e-3


@pytest.mark.parametrize("n", [1024, 4096])
def test_carleson_square_closed_form(n):
    # from a side's midpoint the farthest corners are sqrt(5) away, and a disc
    # just wider holds the whole perimeter 8
    report = carleson_constant(make_square(n))
    assert report.constant_estimate == 8.0 / np.sqrt(5.0)
    assert report.argmax_radius == pytest.approx(np.sqrt(5.0), rel=1e-15)
    assert report.argmax_point in (1, 1j, -1, -1j)


@pytest.mark.parametrize("name, n", [("circle", 64), ("square", 64), ("ellipse:2,1", 128),
                                     ("perturbed-circle:0.3,12", 256)])
def test_carleson_is_the_brute_force_sup_over_every_radius(name, n):
    # below 1024 nodes every node is a centre; portion(eps+) takes the nodes
    # with d <= eps, at eps = lo and at every node distance d >= lo
    curve = curve_from_name(name, n)
    report = carleson_constant(curve)
    lo = 2.0 * curve.max_spacing()
    best = 0.0
    for z in curve.nodes:
        d = np.abs(curve.nodes - z)
        eps = np.append(d[d >= lo], lo)
        best = max(best, ((d[None, :] <= eps[:, None]) @ curve.arc_weights / eps).max())
    assert report.constant_estimate == pytest.approx(best, rel=1e-12, abs=0.0)
    d = np.abs(curve.nodes - report.argmax_point)
    at_argmax = curve.arc_weights[d <= report.argmax_radius].sum() / report.argmax_radius
    assert at_argmax == pytest.approx(best, rel=1e-12, abs=0.0)


def _carleson_by_argsort(curve):
    """The general per-centre scan: argsort, gathered weights and their cumsum."""
    n, z, w = curve.n_nodes, curve.nodes, curve.arc_weights
    lo = 2.0 * curve.max_spacing()
    best = -np.inf
    for i in range(0, n, max(1, n // CARLESON_CENTRES)):
        d = np.abs(z - z[i])
        order = np.argsort(d, kind="stable")
        ratios = np.cumsum(w[order]) / np.maximum(d[order], lo)
        j = int(np.argmax(ratios))
        if ratios[j] > best:
            best, centre = ratios[j], i
            inside, radius = w[order[: j + 1]], max(float(d[order[j]]), lo)
    return math.fsum(inside) / radius, complex(z[centre]), radius


def _scaled_rotated_circle(n):
    # equal weights on a curve not flagged as the unit circle
    circle = make_unit_circle(n)
    turn = np.exp(0.7j)
    return JordanCurve(3.0 * turn * circle.nodes, 3.0 * circle.arc_weights,
                       np.angle(turn * circle.unit_tangents))


@pytest.mark.parametrize("name, n", [
    *(("circle", n) for n in (8, 9, 17, 1000, 1023, 4096, 4097)),
    ("unflagged-circle", 1000),
    ("ellipse:2,1", 1024),
    ("square", 1024),
    ("perturbed-circle:0.3,12", 1024),
])
def test_carleson_is_bitwise_the_argsort_scan(name, n):
    # equal arc weights (circles, the square) share one running sum and sort
    # only the distances; every report field must still be the general
    # scan's, to the bit. The ellipse and the perturbed circle take that scan.
    curve = _scaled_rotated_circle(n) if name == "unflagged-circle" else curve_from_name(name, n)
    report = carleson_constant(curve)
    fields = (report.constant_estimate, report.argmax_point, report.argmax_radius)
    assert fields == _carleson_by_argsort(curve)


def _argsort_calls(monkeypatch, curve):
    calls = []
    argsort = np.argsort

    def counting(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    carleson_constant(curve)
    monkeypatch.undo()
    return len(calls)


def test_carleson_sorts_no_indices_on_equal_weights(circle1024, monkeypatch):
    assert _argsort_calls(monkeypatch, circle1024) == 0
    assert _argsort_calls(monkeypatch, _scaled_rotated_circle(1024)) == 0
    ellipse = curve_from_name("ellipse:2,1", 1024)
    centres = len(range(0, 1024, 1024 // CARLESON_CENTRES))
    assert _argsort_calls(monkeypatch, ellipse) == centres


def test_curve_csv_roundtrip(circle1024):
    text = curve_to_csv(circle1024)
    lines = text.strip().splitlines()
    assert lines[0] == "j,re,im,weight,theta"
    assert len(lines) == 1025
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0)
    assert float(first[4]) == pytest.approx(np.pi / 2)


def _full_trig_table(curve, degree):
    """The whole (n, 2 degree + 1) table exp(i k theta_j), k = -degree..degree."""
    table = np.empty((curve.n_nodes, 2 * degree + 1), dtype=complex)
    np.multiply.outer(np.angle(curve.nodes), np.arange(-degree, degree + 1.0), out=table.real)
    np.sin(table.real, out=table.imag)
    np.cos(table.real, out=table.real)
    return table


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "square", "perturbed-circle:0.3,12"])
@pytest.mark.parametrize("degree, n", [(1, 65536), (12, 4096), (300, 1000)])
def test_trig_polynomial_by_node_block_is_the_full_table_product(name, degree, n):
    # several node blocks and a partial last one; the columns k < 0 taken as
    # conjugates of k > 0 leave one polynomial's values bitwise the full
    # table's, and a stack, one product per block, within rounding of them
    rows_per_block = TRIG_BLOCK // (2 * degree + 1)
    assert n > rows_per_block and n % rows_per_block != 0
    curve = curve_from_name(name, n)
    table = _full_trig_table(curve, degree)
    rng = np.random.default_rng(degree)
    c = rng.standard_normal((3, 2 * degree + 1)) + 1j * rng.standard_normal((3, 2 * degree + 1))
    stack = trig_polynomial(curve, c)
    assert stack.shape == (3, n)
    for row, coeff in zip(stack, c):
        assert np.abs(row - table @ coeff).max() <= 16 * np.finfo(float).eps * np.abs(coeff).sum()
    assert np.array_equal(trig_polynomial(curve, c[1]), table @ c[1])
