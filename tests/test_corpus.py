import numpy as np

from siolab.corpus import random_trig_polynomial
from siolab.curves import make_ellipse


def test_trig_polynomial_count_matches_one_at_a_time():
    curve = make_ellipse(2.0, 1.0, 256)
    stacked = random_trig_polynomial(curve, np.random.default_rng(8), degree=5, count=4)
    rng = np.random.default_rng(8)
    singles = [random_trig_polynomial(curve, rng, degree=5) for _ in range(4)]
    assert stacked.shape == (4, 256)
    assert np.array_equal(stacked, singles)
