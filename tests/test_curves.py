import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from siolab.curves import (
    carleson_constant,
    curve_from_name,
    curve_to_csv,
    default_epsilon_grid,
    make_ellipse,
    make_parametric_curve,
    make_square,
    make_unit_circle,
    refine_epsilon_grid,
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


def test_carleson_circle_pi(circle4096):
    # closed form: max of 4 arcsin(eps/2)/eps on (0, 2] is pi at eps = 2
    report = carleson_constant(circle4096)
    assert report.constant_estimate == pytest.approx(np.pi, rel=0.01)
    assert report.constant_estimate >= 2.0 - 0.1


def test_carleson_circle_estimate_is_pi_to_rounding(circle4096):
    # portions summed shell by shell: 8.9e-16 off, where one running sum of
    # 4096 weights per centre missed pi by 2.1e-13
    assert abs(carleson_constant(circle4096).constant_estimate - np.pi) <= 2e-15


def test_carleson_peak_memory_and_diameter(circle4096):
    # the diameter's 512 x 512 differences by row blocks: same maximum, and
    # the scan holds a few distance rows (the whole matrix took 6 MiB)
    for curve in (circle4096, curve_from_name("ellipse:2,1", 4096)):
        z = curve.nodes[:: curve.n_nodes // 512]
        assert curve.approximate_diameter() == float(np.abs(z[:, None] - z[None, :]).max())
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


def test_carleson_ellipse_stable_under_refinement(ellipse4096):
    grid = default_epsilon_grid(ellipse4096)
    base = carleson_constant(ellipse4096, grid, t_subsample=256)
    fine = carleson_constant(ellipse4096, refine_epsilon_grid(grid), t_subsample=512)
    assert fine.constant_estimate >= base.constant_estimate - 1e-12
    change = (fine.constant_estimate - base.constant_estimate) / base.constant_estimate
    assert change < 0.02


def _quicksort_carleson_scan(curve, eps, t_subsample):
    """The scan with an unstable quicksort of each distance row.

    A portion is the running sum of its shell sums, the weights between
    consecutive radii, as ``carleson_constant`` adds them up.
    """
    best, best_t, best_eps = -np.inf, 0, eps[0]
    for i in range(0, curve.n_nodes, max(1, curve.n_nodes // t_subsample)):
        d = np.abs(curve.nodes - curve.nodes[i])
        order = np.argsort(d, kind="quicksort")
        starts = np.concatenate(([0], np.searchsorted(d[order], eps, side="left")))
        shells = np.add.reduceat(np.append(curve.arc_weights[order], 0.0), starts)[:-1]
        ratios = np.cumsum(shells * (np.diff(starts) > 0)) / eps
        j = int(np.argmax(ratios))
        if ratios[j] > best:
            best, best_t, best_eps = float(ratios[j]), i, float(eps[j])
    return best, complex(curve.nodes[best_t]), best_eps


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "perturbed-circle:0.3,12", "square"])
def test_carleson_stable_sort_matches_the_quicksort_scan(name):
    curve = curve_from_name(name, 4096)
    base = default_epsilon_grid(curve)
    for grid, t_subsample in ((base, 256), (refine_epsilon_grid(base), 512)):
        report = carleson_constant(curve, grid, t_subsample=t_subsample)
        got = (report.constant_estimate, report.argmax_point, report.argmax_radius)
        assert got == _quicksort_carleson_scan(curve, np.sort(grid), t_subsample)


def test_carleson_rejects_empty_grid(circle1024):
    with pytest.raises(ValueError):
        carleson_constant(circle1024, np.array([]))


def test_carleson_rejects_non_finite_radii(circle1024):
    for grid in ([np.nan, 1.0], [np.inf], [0.5, -np.inf], [np.nan]):
        with pytest.raises(ValueError, match="epsilon grid must be finite"):
            carleson_constant(circle1024, np.array(grid))


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "perturbed-circle:0.3,12", "square"])
@pytest.mark.parametrize("n", [512, 1000, 3000, 4096])
def test_carleson_coarse_estimate_is_the_separate_coarse_scan(name, n):
    # the coarse level reads every other sorted radius at the centres for
    # t_subsample // 2; at n = 3000 and 512 centres the strides (5 and 11)
    # do not nest, and at 3 or 1 centres the coarse level has node 0 alone
    curve = curve_from_name(name, n)
    base = default_epsilon_grid(curve)
    fine = refine_epsilon_grid(base)
    assert np.array_equal(fine[::2], base)
    for grid, t_subsample in ((fine, 512), (base[::-1], 256), (base[:7], 3), (base[:1], 1)):
        report = carleson_constant(curve, grid, t_subsample=t_subsample)
        coarse = carleson_constant(curve, np.sort(grid)[::2], max(1, t_subsample // 2))
        assert report.coarse_estimate == coarse.constant_estimate


def test_carleson_rejects_t_subsample_below_one(circle1024):
    for t_subsample in (0, -5):
        with pytest.raises(ValueError, match="t_subsample must be at least 1"):
            carleson_constant(circle1024, t_subsample=t_subsample)


def test_curve_csv_roundtrip(circle1024):
    text = curve_to_csv(circle1024)
    lines = text.strip().splitlines()
    assert lines[0] == "j,re,im,weight,theta"
    assert len(lines) == 1025
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0)
    assert float(first[4]) == pytest.approx(np.pi / 2)
