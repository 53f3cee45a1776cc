import numpy as np

from siolab.corpus import random_trig_polynomial, rational_corpus
from siolab.curves import curve_from_name, make_ellipse


def test_trig_polynomial_count_matches_one_at_a_time():
    curve = make_ellipse(2.0, 1.0, 256)
    stacked = random_trig_polynomial(curve, np.random.default_rng(8), degree=5, count=4)
    rng = np.random.default_rng(8)
    singles = [random_trig_polynomial(curve, rng, degree=5) for _ in range(4)]
    assert stacked.shape == (4, 256)
    assert np.array_equal(stacked, singles)


def test_rational_corpus_on_a_curve_near_the_origin():
    # min |tau| = 0.7 here, so no interior pole can keep 0.75 from the nodes;
    # interior poles keep 0.85 min |tau| instead
    curve = curve_from_name("perturbed-circle:0.3,12", 1024)
    need_in = 0.85 * np.abs(curve.nodes).min()
    corpus = rational_corpus(curve, np.random.default_rng(0), count=12)
    assert len(corpus) == 12
    for name, values in corpus:
        assert np.all(np.isfinite(values))
        # one simple pole c / (tau - z0): min |tau - z0| = |c| / max |f|
        if name.startswith("pole-in:"):
            assert abs(0.7 - 0.2j) / np.abs(values).max() >= need_in
        elif name.startswith("pole-out:"):
            assert abs(1.0 + 0.5j) / np.abs(values).max() >= 0.75
