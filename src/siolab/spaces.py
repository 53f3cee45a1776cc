"""Modulars, Luxemburg--Nakano norms, and pointwise-multiplier norms.

The modular of f over the curve is the quadrature of |f|^p off the infinity
set of the exponent plus the sup of |f| on it. The norm is the smallest
lambda with modular(f / lambda) <= 1. A constant exponent and a pure sup
part take the closed form. Otherwise Newton's method finds the root of
g(t) = log modular(f / (max|f| e^t)), a log-sum-exp of affine functions of
t that cannot overflow, convex and decreasing with slope at most -1
(Diening, Harjulehto, Hasto and Ruzicka, Lebesgue and Sobolev Spaces with
Variable Exponents, Lecture Notes in Math. 2017, ch. 2). So it needs no
bracket: from t = 0 the first step lands left of the root if it starts
right of it, and later steps climb to it, usually four to six in all. The
direct modular at the returned lambda is the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import _trig_sampler, indicator_arc
from .curves import JordanCurve
from .exponents import (
    ExponentFunction,
    conjugate_exponent_r,
    dominance_check,
    partition_infinity_sets,
)

__all__ = [
    "NormResult",
    "UnitBallCheck",
    "MultiplierBounds",
    "MODULAR_TOL",
    "CERTIFICATE_TOL",
    "VARIABLE_EQUIV_ALLOWANCE",
    "modular",
    "luxemburg_norm",
    "norm_value",
    "unit_ball_check",
    "multiplier_norm_via_theorem",
    "multiplier_witness",
    "multiplier_norm_lower",
]

# The root search runs until |modular - 1| <= MODULAR_TOL and then on while
# the modular still improves, at most MAX_STEPS Newton steps, which leaves it
# at rounding level (about 1e-16 for variable exponents). Tighter than the
# CERTIFICATE_TOL carried by NormResult so that norm arithmetic (triangle
# inequality and friends) stays reliable at 1e-10 slack.
MODULAR_TOL = 1e-12
CERTIFICATE_TOL = 1e-10
MAX_STEPS = 64

# Norm-equivalence envelope for the multiplier identity with variable
# exponents, an engineering allowance; for constant exponents it is exact.
VARIABLE_EQUIV_ALLOWANCE = 4.0


@dataclass(frozen=True)
class NormResult:
    """Luxemburg norm together with its convergence certificate.

    ``certified`` says whether the certificate holds: for 0 < value < inf the
    modular of f/value, taken in units of max|f|, lies within CERTIFICATE_TOL
    of 1; the value 0 needs no modular, and inf is certified only for an f
    with infinite samples, whose modular stays inf at every finite lambda
    (``modular_at_value`` inf). A finite f whose norm passes the float range
    gets inf and no certificate. An uncertified result is returned, not
    raised, so callers decide whether it is a fault. ``bisection_iterations``
    counts the Newton steps of the root search and is 0 for a closed form; it
    keeps its name, which the benchmark's span probe reads, until the
    benchmark renames that counter (ROADMAP item 10).
    """

    value: float
    modular_at_value: float
    bisection_iterations: int

    @property
    def certified(self) -> bool:
        if self.value == 0.0:
            return True
        if self.value == np.inf:
            return self.modular_at_value == np.inf
        return abs(self.modular_at_value - 1.0) <= CERTIFICATE_TOL


@dataclass(frozen=True)
class UnitBallCheck:
    modular_le_one: bool
    norm_le_one: bool
    consistent: bool


@dataclass(frozen=True)
class MultiplierBounds:
    """The best certified trial bound for the multiplier norm of a, the norm
    of a in L^r, and the certified bound of the analytic witness (0 if none)."""

    lower_bound: float
    theorem_value: float
    witness_value: float


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


def _modular_value(v_fin, p_fin, w_fin, v_inf, lam: float = 1.0) -> float:
    with np.errstate(over="ignore"):
        integral = float(np.sum((v_fin / lam) ** p_fin * w_fin))
    return integral + (float(v_inf.max() / lam) if v_inf.size else 0.0)


def modular(curve: JordanCurve, f, p: ExponentFunction) -> float:
    """Variable-exponent modular of f over the curve; inf is a valid result."""
    v_fin, p_fin, w_fin, v_inf = _modular_parts(curve, f, p)
    return _modular_value(v_fin, p_fin, w_fin, v_inf)


def luxemburg_norm(curve: JordanCurve, f, p: ExponentFunction) -> NormResult:
    """Smallest lambda > 0 with modular(f / lambda) <= 1.

    Returns 0 for the zero function and inf when no finite lambda brings the
    modular down to 1 (for example when f is infinite on a positive-measure
    part of the curve). A finite f whose norm passes the float range also
    gets inf, without a certificate.
    """
    v_fin, p_fin, w_fin, v_inf = _modular_parts(curve, f, p)
    if (v_fin.size == 0 or not v_fin.any()) and (v_inf.size == 0 or not v_inf.any()):
        return NormResult(0.0, 0.0, 0)
    vmax = max(v_fin.max() if v_fin.size else 0.0, v_inf.max() if v_inf.size else 0.0)
    if not np.isfinite(vmax):
        return NormResult(np.inf, np.inf, 0)
    # everything below is in units of vmax: lambda = vmax * scale, and the
    # certificate is the modular of f/vmax at scale, which neither an
    # overflowing nor a subnormal lambda can spoil
    v_fin /= vmax
    v_inf /= vmax

    def result(scale, iterations=0):
        with np.errstate(over="ignore"):
            value = float(vmax * scale)
        return NormResult(value, _modular_value(v_fin, p_fin, w_fin, v_inf, scale), iterations)

    # closed forms: a pure sup part, or a constant finite exponent
    if v_fin.size == 0:
        return result(1.0)
    if v_inf.size == 0 and np.all(p_fin == p_fin[0]):
        pc = float(p_fin[0])
        closed = result(np.sum(v_fin ** pc * w_fin) ** (1.0 / pc))
        if closed.certified:
            return closed
        # fall through on the rare precision miss and polish by the root search

    # g(t) = log modular(f / (vmax e^t)) = log sum exp(a - slopes t): slope p
    # for each nonzero node, and 1 for the sup part
    keep = v_fin > 0.0
    slopes, a = p_fin[keep], np.log(w_fin[keep])
    with np.errstate(divide="ignore"):
        a += slopes * np.log(v_fin[keep])
        if v_inf.size:
            slopes = np.append(slopes, 1.0)
            a = np.append(a, np.log(v_inf.max()))

    def g_and_mean_slope(t):
        with np.errstate(over="ignore", invalid="ignore"):
            e = a - slopes * t
            top = e.max()
            z = np.exp(e - top)
            total = z.sum()
            return float(top + np.log(total)), float(z @ slopes / total)

    # Newton steps until the modular is within MODULAR_TOL of 1 and g no
    # longer improves
    t = best_t = 0.0
    g, mean = g_and_mean_slope(t)
    best_g, iterations = g, 0
    while iterations < MAX_STEPS and np.isfinite(g):
        t += g / mean
        g, mean = g_and_mean_slope(t)
        iterations += 1
        if abs(g) < abs(best_g):
            best_t, best_g = t, g
        elif abs(np.expm1(best_g)) <= MODULAR_TOL:
            break
    return result(np.exp(best_t), iterations)


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
    return UnitBallCheck(m_ok, n_ok, m_ok == n_ok or boundary)


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
) -> MultiplierBounds:
    """Certified lower bound for the multiplier norm of a from X_p to X_q.

    Maximizes ||a g||_q over trial functions g normalized to ||g||_p = 1:
    constants, indicator arcs (including shrinking arcs at the argmax of
    |a|), random trigonometric polynomials, and the analytic witness built
    from the theorem value. Every candidate certifies its own bound, so the
    lower bound never overshoots the true operator norm. The theorem value
    and the witness's bound come with it.
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

    def bound(g: np.ndarray) -> float:
        g = np.where(finite, g, 0.0)
        ng = norm_value(curve, g, p)
        if not np.isfinite(ng) or ng <= 0.0:
            return 0.0
        with np.errstate(invalid="ignore"):
            product = av * g / ng
        product = np.where(g == 0.0, 0.0, product)  # inf * 0 artifacts
        val = norm_value(curve, product, q)
        # a divergent discrete modular (inf sample of a under g) certifies nothing
        return float(val) if np.isfinite(val) else 0.0

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
    lower = max(bound(g) for g in candidates)
    # analytic witness built from the theorem value
    c = multiplier_norm_via_theorem(curve, a, p, q)
    witness = 0.0
    if np.isfinite(c) and c > 0.0:
        w = multiplier_witness(curve, a, p, q, c, 1e-3 * c)
        if w.any():
            witness = bound(w)
    return MultiplierBounds(max(lower, witness), c, witness)
