import numpy as np
import pytest

from siolab.cauchy import riesz_projections
from siolab.corpus import (
    random_trig_coefficients,
    random_trig_polynomial,
    rational_corpus,
    rational_function,
)
from siolab.curves import curve_from_name, make_ellipse


# A stack of polynomials is one product per node block, whose sums round
# otherwise than one polynomial's matrix-vector product: at most 1.6 eps
# sum |c_k| apart over the stacks of tests/test_curves.py and these
ROUNDING = 16 * np.finfo(float).eps


def test_trig_polynomial_count_matches_one_at_a_time():
    curve = make_ellipse(2.0, 1.0, 256)
    stacked = random_trig_polynomial(curve, np.random.default_rng(8), degree=5, count=4)
    rng = np.random.default_rng(8)
    singles = [random_trig_polynomial(curve, rng, degree=5) for _ in range(4)]
    rng = np.random.default_rng(8)
    drawn = [random_trig_coefficients(rng, 5) for _ in range(4)]
    # the draw order is exact; the values agree to rounding
    assert np.array_equal(random_trig_coefficients(np.random.default_rng(8), 5, count=4), drawn)
    assert stacked.shape == (4, 256)
    for row, single, coeff in zip(stacked, singles, drawn):
        assert np.abs(row - single).max() <= ROUNDING * np.abs(coeff).sum()


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1"])
def test_trig_polynomial_matches_a_fresh_table(name):
    # degree d reads the table exp(i k theta), k = -d..d, real coefficients first
    curve = curve_from_name(name, 1024)
    theta = np.angle(curve.nodes)
    for d in range(9):
        got = random_trig_polynomial(curve, np.random.default_rng(d), degree=d)
        rng = np.random.default_rng(d)
        k = np.arange(-d, d + 1)
        coeff = rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)
        assert np.array_equal(got, np.exp(1j * np.outer(theta, k)) @ coeff)


def test_trig_polynomial_stack_over_node_blocks_keeps_the_draw_order():
    # 24 rows of degree 12 at n = 4096, four node blocks of 1310 and a partial
    # one: every coefficient is drawn first, row by row, real then imaginary
    curve = curve_from_name("ellipse:2,1", 4096)
    got = random_trig_polynomial(curve, np.random.default_rng(4), degree=12, count=24)
    stack = random_trig_coefficients(np.random.default_rng(4), 12, count=24)
    table = np.exp(1j * np.outer(np.angle(curve.nodes), np.arange(-12, 13)))
    rng = np.random.default_rng(4)
    for row, drawn in zip(got, stack):
        coeff = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        assert np.array_equal(drawn, coeff)
        assert np.abs(row - table @ coeff).max() <= ROUNDING * np.abs(coeff).sum()


def test_rational_corpus_on_a_curve_near_the_origin():
    # min |tau| = 0.7 here, so no interior pole can keep 0.75 from the nodes;
    # interior poles keep 0.85 min |tau| instead
    curve = curve_from_name("perturbed-circle:0.3,12", 1024)
    need_in = 0.85 * np.abs(curve.nodes).min()
    corpus = rational_corpus(curve, np.random.default_rng(0), count=12)
    assert len(corpus) == 12
    for name, values, _ in corpus:
        assert np.all(np.isfinite(values))
        # one simple pole c / (tau - z0): min |tau - z0| = |c| / max |f|
        if name.startswith("pole-in:"):
            assert abs(0.7 - 0.2j) / np.abs(values).max() >= need_in
        elif name.startswith("pole-out:"):
            assert abs(1.0 + 0.5j) / np.abs(values).max() >= 0.75


def test_rational_corpus_exact_P_part_is_the_circle_projection():
    # on the circle P is the exact FFT multiplier: the residue oracle must agree
    curve = curve_from_name("circle", 4096)
    corpus = rational_corpus(curve, np.random.default_rng(5), count=9)
    assert {name.partition(":")[0] for name, _, _ in corpus} == {"pole-out", "pole-in",
                                                                  "pole-pair"}
    for name, f, pf in corpus:
        p_fft, q_fft = riesz_projections(curve, f)
        assert np.abs(p_fft - pf).max() <= 1e-14, name
        assert np.abs(q_fft - (f - pf)).max() <= 1e-14, name
    kinds = {name.partition(":")[0]: (f, pf) for name, f, pf in corpus}
    assert np.array_equal(*kinds["pole-out"])  # P f = f
    assert not np.any(kinds["pole-in"][1])  # P f = 0


@pytest.mark.parametrize("name", ["circle", "ellipse:2,1", "square", "perturbed-circle:0.3,12"])
def test_polynomial_part_is_bitwise_numpy_polyval(name):
    # Horner's rule in polyval's order replaced the numpy.polynomial call
    curve = curve_from_name(name, 1024)
    for coeffs in [(0.3, 0.1), (1.0 - 2.0j,), (0.5 - 0.2j, 1.5, -2.0 + 1.0j, 0.25)]:
        expected = np.polynomial.polynomial.polyval(curve.nodes, np.asarray(coeffs, complex))
        assert np.array_equal(rational_function(curve, [], [], coeffs), expected)
        with_pole = rational_function(curve, [3.0], [1.0], coeffs)
        assert np.array_equal(with_pole, 1.0 / (curve.nodes - 3.0) + expected)
