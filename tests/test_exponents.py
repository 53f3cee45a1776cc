import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from siolab.curves import make_unit_circle
from siolab.exponents import (
    LogHolderReport,
    check_conjugate_triple,
    conjugate_exponent_r,
    dominance_check,
    essential_bounds,
    exponent_constant,
    exponent_from_preset,
    exponent_from_values,
    log_holder_constant,
    partition_infinity_sets,
    reciprocal,
)


def test_values_below_one_rejected():
    with pytest.raises(ValueError):
        exponent_from_values([2.0, 0.9, 3.0])


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
    p = exponent_from_values(vals)
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
    p = exponent_from_values(np.maximum(2.0 + np.sin(theta), 1.0))
    q = exponent_constant(2.0, 1024)
    ok, viol = dominance_check(p, q)
    assert not ok
    assert np.all(np.sin(theta[viol]) < 0)
    ok2, viol2 = dominance_check(p, p)
    assert ok2 and viol2.size == 0


@st.composite
def dominated_pair(draw):
    n = 32
    q = draw(arrays(np.float64, n, elements=st.floats(min_value=1.0, max_value=8.0)))
    bump = draw(arrays(np.float64, n, elements=st.floats(min_value=0.0, max_value=8.0)))
    inf_mask = draw(arrays(np.bool_, n))
    p = np.where(inf_mask, np.inf, q + bump)
    return exponent_from_values(p), exponent_from_values(q)


@settings(max_examples=60, deadline=None)
@given(dominated_pair())
def test_conjugate_recombination_identity(pair):
    p, q = pair
    r = conjugate_exponent_r(p, q)
    lhs = reciprocal(q.values)
    rhs = reciprocal(p.values) + reciprocal(r.values)
    assert np.abs(lhs - rhs).max() <= 1e-12
    check_conjugate_triple(p, q, r)


@settings(max_examples=60, deadline=None)
@given(dominated_pair())
def test_partition_is_a_partition(pair):
    p, q = pair
    r = conjugate_exponent_r(p, q)
    g1, g2, g3 = partition_infinity_sets(p, q, r)
    allidx = np.sort(np.concatenate([g1, g2, g3]))
    assert np.array_equal(allidx, np.arange(p.n_nodes))
    # structure forced by the reciprocal identity
    assert np.all(np.isinf(p.values[g1]))
    assert np.allclose(q.values[g1], r.values[g1], equal_nan=False) or np.all(
        np.isinf(q.values[g1]) == np.isinf(r.values[g1])
    )
    assert np.all(np.isinf(r.values[g2])) and np.all(p.values[g2] == q.values[g2])
    assert np.all(np.isfinite(r.values[g3]) | (p.values[g3] == q.values[g3]))


def test_partition_examples():
    n = 12
    inf = exponent_constant(np.inf, n)
    two = exponent_constant(2.0, n)
    four = exponent_constant(4.0, n)
    g1, g2, g3 = partition_infinity_sets(inf, two, two)
    assert g1.size == n and g2.size == 0 and g3.size == 0
    g1, g2, g3 = partition_infinity_sets(two, two, inf)
    assert g2.size == n
    g1, g2, g3 = partition_infinity_sets(four, two, four)
    assert g3.size == n


def test_partition_rejects_inconsistent_triple():
    n = 8
    p, q = exponent_constant(4.0, n), exponent_constant(2.0, n)
    # the second 1/r is off by 1e-10, far above the rounding of conjugate_exponent_r
    for r in (exponent_constant(3.0, n), exponent_from_values(np.full(n, 1.0 / (0.25 + 1e-10)))):
        with pytest.raises(ValueError, match="1/q = 1/p"):
            check_conjugate_triple(p, q, r)
        with pytest.raises(ValueError, match="1/q = 1/p"):
            partition_infinity_sets(p, q, r)


def test_log_holder_constant_exponent(circle1024):
    rep = log_holder_constant(exponent_constant(2.0, 1024), circle1024)
    assert rep.holds
    assert rep.constant_estimate == 0.0
    # a constant exponent skips the scan and returns what the scan would
    assert rep == LogHolderReport(True, 0.0, None, 2.0, 2.0, ())
    assert type(rep.holds) is bool
    one = log_holder_constant(exponent_constant(1.0, 1024), circle1024)
    assert one == LogHolderReport(False, 0.0, None, 1.0, 1.0, ())


def test_log_holder_variable_exponent_is_scanned(circle1024):
    rep = log_holder_constant(exponent_from_preset("2+abs(sin)", circle1024), circle1024)
    assert rep.holds
    assert rep.constant_estimate > 0.0
    assert rep.worst_pair is not None
    assert rep.band_maxima


def test_log_holder_step_fails(circle4096):
    rep = log_holder_constant(exponent_from_preset("step:2,3", circle4096), circle4096)
    assert not rep.holds
    # the jump shows up as band maxima growing linearly in the band index
    tail = [b for b in rep.band_maxima[-6:] if b > 0]
    assert tail == sorted(tail)


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
    rep = log_holder_constant(exponent_from_values(vals), make_unit_circle(1024))
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
