import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import siolab.exponents as exponents
from siolab.curves import JordanCurve, curve_from_name, make_unit_circle
from siolab.exponents import (
    ExponentFunction,
    LogHolderReport,
    conjugate_exponent_r,
    dominance_check,
    essential_bounds,
    exponent_constant,
    exponent_from_preset,
    log_holder_constant,
    reciprocal,
)


def test_values_below_one_rejected():
    with pytest.raises(ValueError):
        ExponentFunction([2.0, 0.9, 3.0])


def test_essential_bounds_constant():
    p = exponent_constant(2.0, 64)
    assert essential_bounds(p) == (2.0, 2.0)


def test_essential_bounds_sin_profile(circle4096):
    p = exponent_from_preset("2+abs(sin)", circle4096)
    lo, hi = essential_bounds(p)
    assert lo == pytest.approx(2.0, abs=1e-6)
    assert hi == pytest.approx(3.0, abs=1e-6)


def test_essential_bounds_with_infinity():
    vals = np.full(32, 2.0)
    vals[5] = np.inf
    p = ExponentFunction(vals)
    assert essential_bounds(p)[1] == np.inf


def test_conjugate_trivial_cases():
    n = 16
    inf = exponent_constant(np.inf, n)
    two = exponent_constant(2.0, n)
    four = exponent_constant(4.0, n)
    assert np.allclose(conjugate_exponent_r(inf, two).values, 2.0)
    assert np.allclose(conjugate_exponent_r(four, two).values, 4.0)
    assert np.all(np.isinf(conjugate_exponent_r(two, two).values))


def test_conjugate_rejects_dominance_violation():
    p = exponent_constant(2.0, 8)
    q = exponent_constant(3.0, 8)
    with pytest.raises(ValueError, match="q > p"):
        conjugate_exponent_r(p, q)


def test_dominance_check_lists_violations(circle1024):
    theta = np.angle(circle1024.nodes)
    p = ExponentFunction(np.maximum(2.0 + np.sin(theta), 1.0))
    q = exponent_constant(2.0, 1024)
    # the one dominance refusal: it returned (ok, nodes) and three callers
    # each raised their own message from them
    with pytest.raises(ValueError, match="dominance q <= p fails") as exc:
        dominance_check(p, q)
    count, first = re.search(r"q > p at (\d+) nodes, first (\[.*\])", str(exc.value)).groups()
    first = json.loads(first)
    assert int(count) == np.count_nonzero(np.sin(theta) < 0) and len(first) == 8
    assert np.all(np.sin(theta[first]) < 0)
    assert dominance_check(p, p) is None


@st.composite
def dominated_pair(draw):
    n = 32
    q = draw(arrays(np.float64, n, elements=st.floats(min_value=1.0, max_value=8.0)))
    bump = draw(arrays(np.float64, n, elements=st.floats(min_value=0.0, max_value=8.0)))
    inf_mask = draw(arrays(np.bool_, n))
    p = np.where(inf_mask, np.inf, q + bump)
    return ExponentFunction(p), ExponentFunction(q)


@settings(max_examples=60, deadline=None)
@given(dominated_pair())
def test_conjugate_recombination_identity(pair):
    p, q = pair
    r = conjugate_exponent_r(p, q)
    lhs = reciprocal(q.values)
    rhs = reciprocal(p.values) + reciprocal(r.values)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_log_holder_constant_exponent(circle1024):
    rep = log_holder_constant(exponent_constant(2.0, 1024), circle1024)
    assert rep.holds
    assert rep.constant_estimate == 0.0
    # a constant exponent skips the scan and returns what the scan would
    assert rep == LogHolderReport(True, 0.0, 2.0, 2.0)
    assert type(rep.holds) is bool
    one = log_holder_constant(exponent_constant(1.0, 1024), circle1024)
    assert one == LogHolderReport(False, 0.0, 1.0, 1.0)


def test_log_holder_variable_exponent_is_scanned(circle1024):
    rep = log_holder_constant(exponent_from_preset("2+abs(sin)", circle1024), circle1024)
    assert rep.holds
    assert rep.constant_estimate > 0.0


def test_log_holder_step_fails(circle4096):
    rep = log_holder_constant(exponent_from_preset("step:2,3", circle4096), circle4096)
    # the jump shows up as band maxima growing linearly in the band index
    assert not rep.holds


def test_log_holder_scan_takes_at_most_max_nodes():
    # n = 8191 scans every 2nd node, as the explicit 4096-node curve does; a
    # step of n // max_nodes = 1 scanned all 8191
    c = make_unit_circle(8191)
    p = exponent_from_preset("2+abs(sin)", c)
    half = JordanCurve(c.nodes[::2], c.arc_weights[::2], c.tangent_angles[::2])
    rep = log_holder_constant(p, c)
    every_2nd = log_holder_constant(ExponentFunction(p.values[::2]), half)
    assert (rep.constant_estimate, rep.holds) == (every_2nd.constant_estimate, every_2nd.holds)


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1"])
def test_log_holder_report_does_not_depend_on_the_scan_block(monkeypatch, name):
    # the estimate and the band maxima are maxima, which no block order changes
    curve = curve_from_name(name, 1024)
    for spec in ("step:2,3", "logsmooth:3,1", "2+abs(sin)"):
        p = exponent_from_preset(spec, curve)
        reports = []
        for rows in (7, 32, 128):
            monkeypatch.setattr(exponents, "SCAN_ROWS", rows)
            reports.append(log_holder_constant(p, curve))
        assert reports[0] == reports[1] == reports[2], spec


def test_log_holder_scan_peak_memory(circle4096):
    # 6.3 MiB in blocks of 32 rows; 24.6 MiB in blocks of 128
    p = exponent_from_preset("2+abs(sin)", circle4096)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        log_holder_constant(p, circle4096)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_log_holder_smooth_profile_stable():
    estimates = {}
    for n in (1024, 2048):
        c = make_unit_circle(n)
        p = exponent_from_preset("logsmooth:2,1", c)
        rep = log_holder_constant(p, c)
        assert rep.holds, rep
        estimates[n] = rep.constant_estimate
    # nested nodes: the sampled sup can only grow, and slowly for this profile
    assert estimates[2048] >= estimates[1024] - 1e-12
    assert estimates[2048] <= estimates[1024] * 1.15


def test_log_holder_unbounded_exponent():
    vals = np.full(1024, 2.0)
    vals[3] = np.inf
    rep = log_holder_constant(ExponentFunction(vals), make_unit_circle(1024))
    assert not rep.holds
    assert rep.constant_estimate == np.inf


def test_preset_parsing(circle1024):
    assert exponent_from_preset("4", circle1024).is_constant
    assert np.all(np.isinf(exponent_from_preset("inf", circle1024).values))
    p = exponent_from_preset("2+0.5*abs(cos)", circle1024)
    assert essential_bounds(p) == pytest.approx((2.0, 2.5), abs=1e-6)
    with pytest.raises(ValueError):
        exponent_from_preset("bogus:1", circle1024)
    with pytest.raises(ValueError, match="exponent values"):
        exponent_from_preset("0.5", circle1024)
