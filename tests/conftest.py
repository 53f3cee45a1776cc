import numpy as np
import pytest
from hypothesis import settings

from siolab import make_ellipse, make_unit_circle
from siolab.cauchy import apply_S, conjugation_H, mode_basis, operator_matrix
from siolab.exponents import check_conjugate_triple
from siolab.spaces import norm_value
from siolab.toeplitz import finite_section

settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def circle512():
    return make_unit_circle(512)


@pytest.fixture(scope="session")
def circle1024():
    return make_unit_circle(1024)


@pytest.fixture(scope="session")
def circle4096():
    return make_unit_circle(4096)


@pytest.fixture(scope="session")
def circle8192():
    return make_unit_circle(8192)


@pytest.fixture(scope="session")
def ellipse4096():
    return make_ellipse(2.0, 1.0, 4096)


@pytest.fixture(scope="session")
def ellipse8192():
    return make_ellipse(2.0, 1.0, 8192)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def _holder_ratio(curve, f, g, p, q, r):
    """(||fg||_q, ||f||_p ||g||_r, their ratio, fault) for a conjugate triple.

    The fault is a nonzero product fg with ||f||_p ||g||_r = 0 (ratio inf).
    """
    check_conjugate_triple(p, q, r)
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    lhs = norm_value(curve, f * g, q)
    rhs = norm_value(curve, f, p) * norm_value(curve, g, r)
    if lhs == 0.0:
        return lhs, rhs, 0.0, False
    if rhs == 0.0:
        return lhs, rhs, np.inf, True
    return lhs, rhs, lhs / rhs, False


def _block_residuals(curve, a, N):
    """Residuals of the operator-block identities behind the companion.

    On the weighted-normalized modes tau^k, -N <= k <= N:
    ``off_block``, PaP + Q is block diagonal (analytic inputs stay on the
    analytic side, anti-analytic inputs pass through unchanged);
    ``adjoint``, (PaP + Q)* = H (P + QaQ) H in the weighted pairing;
    ``multiplication_adjoint``, (aI)* = conj(a) I; and, on the unit circle
    for a symbol known to degree N, ``section``: the analytic block of
    PaP + Q equals ``finite_section``.
    """
    B = mode_basis(curve, np.arange(-N, N + 1))
    plus = np.arange(-N, N + 1) >= 0
    av = a.values

    def S(X):
        return apply_S(curve, X.T).T

    def norm(X):
        return np.sqrt(np.sum(np.abs(X) ** 2 * curve.arc_weights, axis=-1))

    def M(X):
        return operator_matrix(curve, X, B)

    PB = 0.5 * (B + S(B))
    aPB = av * PB
    op1 = 0.5 * (aPB + S(aPB)) + (B - PB)        # (PaP + Q) on the basis
    HB = conjugation_H(curve, B)
    PHB = 0.5 * (HB + S(HB))
    aQHB = av * (HB - PHB)
    conj_op = conjugation_H(curve, PHB + 0.5 * (aQHB - S(aQHB)))  # H (P + QaQ) H
    M1 = M(op1)
    out_plus = op1[plus]
    res = {
        "off_block": max(norm(out_plus - 0.5 * (out_plus + S(out_plus))).max(),
                         norm(op1[~plus] - B[~plus]).max()),
        "adjoint": np.abs(M1.conj().T - M(conj_op)).max(),
        "multiplication_adjoint": np.abs(M(av * B).conj().T - M(np.conj(av) * B)).max(),
    }
    if curve.is_unit_circle and (a.exact_band or a.degree >= N):
        res["section"] = np.abs(M1[np.ix_(plus, plus)] - finite_section(a, N + 1, N + 1)).max()
    return {key: float(value) for key, value in res.items()}


@pytest.fixture(scope="session")
def holder_ratio():
    return _holder_ratio


@pytest.fixture(scope="session")
def block_residuals():
    return _block_residuals
