"""Modulars, Luxemburg--Nakano norms, and pointwise-multiplier norms.

The modular of f over the curve is the quadrature of |f|^p off the infinity
set of the exponent plus the sup of |f| on it. The norm is the smallest
lambda with modular(f / lambda) <= 1. Constant exponents take the closed
form. Otherwise a doubling / halving bracket holds the root and Newton's
method in t = log(lambda) finds it: log modular(f / e^t) is a log-sum-exp
of affine functions of t, hence convex and strictly decreasing, so the
steps from the left end of the bracket climb to the root without overshoot
(Diening, Harjulehto, Hasto and Ruzicka, Lebesgue and Sobolev Spaces with
Variable Exponents, Lecture Notes in Math. 2017, ch. 2). A step that leaves the bracket bisects
instead. The search stops once the modular is within MODULAR_TOL of 1 and
no longer improves, usually after four to seven steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import _trig_sampler, indicator_arc
from .curves import JordanCurve
from .exponents import (
    ExponentFunction,
    check_conjugate_triple,
    conjugate_exponent_r,
    dominance_check,
    partition_infinity_sets,
)

__all__ = [
    "NormResult",
    "UnitBallCheck",
    "HolderCheck",
    "MODULAR_TOL",
    "CERTIFICATE_TOL",
    "VARIABLE_EQUIV_ALLOWANCE",
    "modular",
    "luxemburg_norm",
    "norm_value",
    "unit_ball_check",
    "holder_check",
    "multiplier_norm_via_theorem",
    "multiplier_witness",
    "multiplier_norm_lower",
]

# The root search runs until |modular - 1| <= MODULAR_TOL and then on while
# the modular still improves, which leaves it at rounding level (about 1e-16
# for variable exponents). Tighter than the CERTIFICATE_TOL carried by
# NormResult so that norm arithmetic (triangle inequality and friends) stays
# reliable at 1e-10 slack.
MODULAR_TOL = 1e-12
CERTIFICATE_TOL = 1e-10
MAX_BISECTIONS = 200

# Norm-equivalence envelope for the multiplier identity with variable
# exponents, an engineering allowance; for constant exponents it is exact.
VARIABLE_EQUIV_ALLOWANCE = 4.0


@dataclass(frozen=True)
class NormResult:
    """Luxemburg norm together with its convergence certificate.

    ``certified`` says whether the certificate holds: for 0 < value < inf the
    modular of f/value lies within CERTIFICATE_TOL of 1; the values 0 and inf
    need no modular. An uncertified result is returned, not raised, so
    callers decide whether it is a fault. ``bisection_iterations`` counts the
    steps of the root search after bracketing, Newton and bisection steps
    alike; it is 0 for a closed form. ``bracket`` is the (lo, hi) interval
    the search started from.
    """

    value: float
    modular_at_value: float
    bisection_iterations: int
    bracket: tuple[float, float]

    @property
    def certified(self) -> bool:
        if self.value == 0.0 or self.value == np.inf:
            return True
        return abs(self.modular_at_value - 1.0) <= CERTIFICATE_TOL


@dataclass(frozen=True)
class UnitBallCheck:
    modular_le_one: bool
    norm_le_one: bool
    modular_value: float
    norm_value: float
    consistent: bool


@dataclass(frozen=True)
class HolderCheck:
    lhs: float
    rhs_product: float
    ratio: float
    fault: bool


def _node_values(curve: JordanCurve, f) -> np.ndarray:
    """Values of f, which must have one sample per curve node."""
    v = np.asarray(f, dtype=complex)
    if v.size != curve.n_nodes:
        raise ValueError("function and curve node counts differ")
    return v


def _modular_parts(curve, f, p):
    v = np.abs(_node_values(curve, f))
    pv = p.values
    if pv.size != curve.n_nodes:
        raise ValueError("exponent and curve node counts differ")
    fin = np.isfinite(pv)  # exponents hold no nan, so ~fin is the infinity set
    return v[fin], pv[fin], curve.arc_weights[fin], v[~fin]


def _modular_terms(v_fin, p_fin, w_fin, v_inf, lam: float):
    """Weighted terms (v/lam)^p w of the integral part, and the sup part / lam."""
    with np.errstate(over="ignore"):
        terms = (v_fin / lam) ** p_fin * w_fin
    sup = float(v_inf.max() / lam) if v_inf.size else 0.0
    return terms, sup


def _modular_value(v_fin, p_fin, w_fin, v_inf, lam: float = 1.0) -> float:
    terms, sup = _modular_terms(v_fin, p_fin, w_fin, v_inf, lam)
    return float(np.sum(terms)) + sup


def modular(curve: JordanCurve, f, p: ExponentFunction) -> float:
    """Variable-exponent modular of f over the curve; inf is a valid result."""
    v_fin, p_fin, w_fin, v_inf = _modular_parts(curve, f, p)
    return _modular_value(v_fin, p_fin, w_fin, v_inf)


def luxemburg_norm(curve: JordanCurve, f, p: ExponentFunction) -> NormResult:
    """Smallest lambda > 0 with modular(f / lambda) <= 1.

    Returns 0 for the zero function and inf when no finite lambda brings the
    modular down to 1 (for example when f is infinite on a positive-measure
    part of the curve).
    """
    v_fin, p_fin, w_fin, v_inf = _modular_parts(curve, f, p)
    if (v_fin.size == 0 or not v_fin.any()) and (v_inf.size == 0 or not v_inf.any()):
        return NormResult(0.0, 0.0, 0, (0.0, 0.0))
    vmax = max(v_fin.max() if v_fin.size else 0.0, v_inf.max() if v_inf.size else 0.0)
    if not np.isfinite(vmax):
        return NormResult(np.inf, 0.0, 0, (np.inf, np.inf))

    def rho(lam):
        return _modular_value(v_fin, p_fin, w_fin, v_inf, lam)

    def rho_slope(lam):
        # rho(lam), bitwise _modular_value, and -d rho / d log(lam), from one power
        terms, sup = _modular_terms(v_fin, p_fin, w_fin, v_inf, lam)
        with np.errstate(over="ignore"):
            return float(np.sum(terms)) + sup, float(np.sum(p_fin * terms)) + sup

    # closed forms: constant finite exponent, or a pure sup part
    if v_fin.size == 0:
        value = float(v_inf.max())
        return NormResult(value, rho(value), 0, (value, value))
    if v_inf.size == 0 and np.all(p_fin == p_fin[0]):
        pc = float(p_fin[0])
        value = float(vmax * np.sum((v_fin / vmax) ** pc * w_fin) ** (1.0 / pc))
        got = rho(value)
        if abs(got - 1.0) <= CERTIFICATE_TOL:
            return NormResult(value, got, 0, (value, value))
        # fall through on the rare precision miss and polish by the root search

    # bracket the root of rho(lam) = 1 by doubling / halving
    mean = float(np.sum(v_fin * w_fin) / np.sum(w_fin)) if v_fin.size else 0.0
    lo = hi = mean if mean > 0 else float(vmax)
    r_lo, d_lo = rho_slope(lo)
    r_hi = r_lo
    if r_lo > 1.0:
        for _ in range(4096):
            hi *= 2.0
            r_hi, _ = rho_slope(hi)
            if r_hi <= 1.0:
                break
        else:
            return NormResult(np.inf, r_hi, 0, (lo, np.inf))
    else:
        for _ in range(4096):
            lo *= 0.5
            r_lo, d_lo = rho_slope(lo)
            if r_lo >= 1.0:
                break
    bracket = (lo, hi)

    # Newton on log rho in t = log(lam): a log-sum-exp of affine functions of
    # t, so convex and decreasing, and from the left end the steps climb to the
    # root without overshoot. A step that leaves (lo, hi) or is not finite
    # bisects instead; the search ends once the modular is within MODULAR_TOL
    # of 1 and stops improving.
    best_lam, best_r = (lo, r_lo) if abs(r_lo - 1.0) < abs(r_hi - 1.0) else (hi, r_hi)
    lam, r, d = lo, r_lo, d_lo
    iterations = 0
    while iterations < MAX_BISECTIONS and hi - lo > 4.0 * np.finfo(float).eps * hi:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam = float(lam * np.exp(r * np.log(r) / d))
        if not lo < lam < hi:
            if abs(best_r - 1.0) <= MODULAR_TOL:
                break  # Newton has come to rest on the root
            lam = 0.5 * (lo + hi)
        r, d = rho_slope(lam)
        iterations += 1
        if abs(r - 1.0) < abs(best_r - 1.0):
            best_lam, best_r = lam, r
        elif abs(best_r - 1.0) <= MODULAR_TOL:
            break
        if r > 1.0:
            lo = lam
        else:
            hi = lam
    return NormResult(best_lam, best_r, iterations, bracket)


def norm_value(curve: JordanCurve, f, p: ExponentFunction) -> float:
    return luxemburg_norm(curve, f, p).value


def unit_ball_check(curve: JordanCurve, f, p: ExponentFunction) -> UnitBallCheck:
    """Evaluate 'modular <= 1' and 'norm <= 1' independently.

    The two are equivalent, so disagreement away from the boundary is a
    numerical fault, flagged rather than raised.
    """
    rho = modular(curve, f, p)
    nrm = luxemburg_norm(curve, f, p).value
    m_ok = rho <= 1.0
    n_ok = nrm <= 1.0
    boundary = abs(rho - 1.0) <= 1e-9 or abs(nrm - 1.0) <= 1e-9
    return UnitBallCheck(m_ok, n_ok, rho, nrm, m_ok == n_ok or boundary)


def holder_check(curve: JordanCurve, f, g, p: ExponentFunction, q: ExponentFunction,
                 r: ExponentFunction) -> HolderCheck:
    """Compare ||fg||_q against ||f||_p ||g||_r for a conjugate triple."""
    check_conjugate_triple(p, q, r)
    fv = np.asarray(f, dtype=complex)
    gv = np.asarray(g, dtype=complex)
    lhs = norm_value(curve, fv * gv, q)
    rhs = norm_value(curve, fv, p) * norm_value(curve, gv, r)
    if lhs == 0.0:
        return HolderCheck(lhs, rhs, 0.0, False)
    if rhs == 0.0:
        return HolderCheck(lhs, rhs, np.inf, True)
    return HolderCheck(lhs, rhs, lhs / rhs, False)


def multiplier_norm_via_theorem(
    curve: JordanCurve, a, p: ExponentFunction, q: ExponentFunction
) -> float:
    """||a|| in L^r for the conjugate exponent r.

    For constant exponents this equals the multiplier operator norm exactly;
    for variable exponents it is equivalent up to constants (see the
    VARIABLE_EQUIV_ALLOWANCE envelope).
    """
    r = conjugate_exponent_r(p, q)
    return norm_value(curve, a, r)


def multiplier_witness(curve: JordanCurve, a, p: ExponentFunction, q: ExponentFunction,
                       c: float, eps: float) -> np.ndarray:
    """Near-extremal trial function for the multiplier norm of a.

    On the finite-exponent part of the curve where a(t) != 0 it equals
    ((c + eps) / a) (|a| / (c + eps))^(r/q), so |witness| =
    (|a| / (c + eps))^(r/p); elsewhere it vanishes. With c at least the
    multiplier norm its p-modular stays <= 1.
    """
    if c <= 0.0 or eps <= 0.0:
        raise ValueError("witness needs c > 0 and eps > 0")
    r = conjugate_exponent_r(p, q)
    _, _, g3 = partition_infinity_sets(p, q, r)
    av = _node_values(curve, a)
    sel = np.zeros(curve.n_nodes, dtype=bool)
    sel[g3] = True
    # nodes sampling an integrable singularity as inf form a null set
    mask = sel & (av != 0.0) & np.isfinite(av)
    out = np.zeros(curve.n_nodes, dtype=complex)
    if mask.any():
        ratio = np.abs(av[mask]) / (c + eps)
        power = r.values[mask] / q.values[mask]
        out[mask] = (c + eps) / av[mask] * ratio**power
    return out


def multiplier_norm_lower(
    curve: JordanCurve,
    a,
    p: ExponentFunction,
    q: ExponentFunction,
    trials: int = 32,
    rng: np.random.Generator | None = None,
) -> float:
    """Certified lower bound for the multiplier norm of a from X_p to X_q.

    Maximizes ||a g||_q over trial functions g normalized to ||g||_p = 1:
    constants, indicator arcs (including shrinking arcs at the argmax of
    |a|), random trigonometric polynomials, and the analytic witness. Every
    candidate certifies its own bound, so the result never overshoots the
    true operator norm.
    """
    ok, viol = dominance_check(p, q)
    if not ok:
        raise ValueError(f"dominance q <= p fails at nodes {viol[:8].tolist()}")
    av = _node_values(curve, a)
    # trials vanish where the samples are non-finite (a null set for
    # integrable singularities); their bounds stay certified
    finite = np.isfinite(av)
    n = curve.n_nodes
    rng = np.random.default_rng(0) if rng is None else rng

    candidates: list[np.ndarray] = [np.ones(n, dtype=complex)]
    # indicator arcs centered at the largest finite |a|
    center = int(np.argmax(np.where(finite, np.abs(av), -1.0)))
    for frac in (0.5, 0.125, 1 / 32, 1 / 128):
        half = max(1, int(n * frac / 2))
        candidates.append(indicator_arc(curve, center, 2 * half + 1))
    # random arcs and random trigonometric polynomials of degree up to 8
    trig = _trig_sampler(curve, 8)
    while len(candidates) < max(8, trials):
        if rng.random() < 0.3:
            start = int(rng.integers(0, n))
            width = int(rng.integers(1, max(2, n // 4)))
            candidates.append(indicator_arc(curve, start + width // 2, width))
        else:
            candidates.append(trig(rng, int(rng.integers(0, 9))))
    # analytic witness built from the theorem value
    c = multiplier_norm_via_theorem(curve, a, p, q)
    if np.isfinite(c) and c > 0.0:
        witness = multiplier_witness(curve, a, p, q, c, 1e-3 * c)
        if witness.any():
            candidates.append(witness)

    best = 0.0
    for g in candidates:
        g = np.where(finite, g, 0.0)
        ng = norm_value(curve, g, p)
        if not np.isfinite(ng) or ng <= 0.0:
            continue
        with np.errstate(invalid="ignore"):
            product = av * g / ng
        product = np.where(g == 0.0, 0.0, product)  # inf * 0 artifacts
        val = norm_value(curve, product, q)
        # a divergent discrete modular (inf sample of a under g) certifies nothing
        if np.isfinite(val) and val > best:
            best = float(val)
    return best
