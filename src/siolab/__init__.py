"""Numerical laboratory for singular integral operators on Jordan curves.

Building blocks: discretized Jordan curves with arc-length quadrature,
variable exponents and their Luxemburg--Nakano norms, the Cauchy singular
integral with its Riesz projections, pointwise-multiplier norms, and Toeplitz
finite sections with a trivial-kernel/dense-image probe.
"""

__version__ = "0.1.0"
