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

from .corpus import indicator_arc
from .curves import JordanCurve
from .exponents import ExponentFunction, conjugate_exponent_r, dominance_check

__all__ = [
    "NormResult",
    "UnitBallCheck",
    "MultiplierBounds",
    "MODULAR_TOL",
    "CERTIFICATE_TOL",
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
# Samples per block of rows of a stack's closed-form norms (``norm_value``),
# which keeps a block's temporaries in cache: sio-check's 24 trial rows take
# 1.1 ms at n = 4096 (two blocks), and at n = 65536 15.6 ms in blocks of
# 2**16 samples against 25 ms in one block and 16 ms row by row.
NORM_BLOCK = 2**16


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
    benchmark renames that counter (ROADMAP item 1).
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
    of a in L^r, the certified bound of the analytic witness (0 if none),
    the number of power steps taken, the relative rise of the last one (0 if
    none) and the Hoelder constant K with multiplier norm <= K theorem value
    (see :func:`multiplier_norm_via_theorem`)."""

    lower_bound: float
    theorem_value: float
    witness_value: float
    power_steps: int
    last_rise: float
    holder_constant: float


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
    if fin.all():  # no sup part: the arrays themselves, no masked copies
        return v, pv, curve.arc_weights, v[:0]
    return v[fin], pv[fin], curve.arc_weights[fin], v[~fin]


def _closed_form_rows(v, pc: float, p_fin, w_fin):
    """Closed-form scale of each row of v under the constant exponent pc, and its modular there.

    v holds |f| in units of its max, one function per row of a 2-d array;
    the scale is (sum v^pc w)^(1/pc), and the modular of v / scale is the
    certificate. One scratch array the shape of v holds both sums' terms.
    """
    terms = v ** pc
    terms *= w_fin
    # a root per row by the scalar power: the array power takes another
    # routine, which can differ in the last bit
    scale = np.array([s ** (1.0 / pc) for s in np.sum(terms, axis=-1)])
    np.divide(v, scale[:, None], out=terms)
    with np.errstate(over="ignore"):
        np.power(terms, p_fin, out=terms)
    terms *= w_fin
    return scale, np.sum(terms, axis=-1)


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
        scale, rho = _closed_form_rows(v_fin[None], float(p_fin[0]), p_fin, w_fin)
        with np.errstate(over="ignore"):
            closed = NormResult(float(vmax * scale[0]), float(rho[0]), 0)
        if closed.certified:
            return closed
        # fall through on the rare precision miss and polish by the root search

    # g(t) = log modular(f / (vmax e^t)) = log sum exp(a - slopes t): slope p
    # for each nonzero node, and 1 for the sup part
    keep = v_fin > 0.0
    slopes, a = p_fin[keep], np.log(w_fin[keep])
    # a huge p times log(|f| / vmax) < 0 overflows to a -inf term, which the
    # log-sum-exp drops
    with np.errstate(divide="ignore", over="ignore"):
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


def norm_value(curve: JordanCurve, f, p: ExponentFunction) -> float | np.ndarray:
    """The Luxemburg norm of f, or an array of the norms of the rows of an (m, n) stack f.

    Each row's norm is bitwise the norm of that row alone. Under a constant
    finite exponent the stack takes the closed form in blocks of rows, and a
    row keeps it when its modular lies within CERTIFICATE_TOL of 1 at a
    finite nonzero value; a row that fails this, a zero or non-finite row,
    and every row under a variable or infinite exponent take
    ``luxemburg_norm``.
    """
    v = np.asarray(f)
    if v.ndim < 2:
        return luxemburg_norm(curve, f, p).value
    m, n = v.shape
    if n != curve.n_nodes:
        raise ValueError("function and curve node counts differ")
    values = np.zeros(m)
    done = np.zeros(m, dtype=bool)
    pv = p.values
    if np.all(pv == pv[0]) and np.isfinite(pv[0]):
        step = max(1, NORM_BLOCK // n)
        for s in range(0, m, step):
            a = np.abs(v[s : s + step]).astype(float, copy=False)
            vmax = a.max(axis=1)
            ok = (vmax > 0.0) & np.isfinite(vmax)
            a = a if ok.all() else a[ok]
            a /= vmax[ok, None]
            scale, rho = _closed_form_rows(a, float(pv[0]), pv, curve.arc_weights)
            with np.errstate(over="ignore"):
                value = vmax[ok] * scale
            keep = (np.abs(rho - 1.0) <= CERTIFICATE_TOL) & (0.0 < value) & (value < np.inf)
            rows = s + np.flatnonzero(ok)[keep]
            done[rows] = True
            values[rows] = value[keep]
    for i in np.flatnonzero(~done):
        values[i] = luxemburg_norm(curve, v[i], p).value
    return values


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
    """||a|| in L^r for the conjugate exponent r, 1/q = 1/p + 1/r.

    For constant exponents this equals the multiplier operator norm exactly.
    For variable exponents the multiplier norm is at most K times it, with
    theta = q/p at each node (1 where q = inf, and there p = r = inf) and
    K = max theta + max(1 - theta), which lies in [1, 2] and is 1 for
    constant exponents. Proof: let rho_p(u) <= 1 and rho_r(a) <= 1. Young's
    inequality |a u|^q <= theta |u|^p + (1 - theta) |a|^r at each node gives
    rho_q(a u) <= K. On {p = inf} use |u| <= 1, on {r = inf} use |a| <= 1,
    and on {q = inf} the sup term sup |a u| <= sup_{p = inf} |u| is paid for
    by theta = 1 there. Convexity of the modular then gives
    ||a u||_q <= K ||a||_r ||u||_p (the generalized Hoelder inequality of
    Diening, Harjulehto, Hasto and Ruzicka, LNM 2017, ch. 3, which states
    it with 2). The argument holds for any positive quadrature weights, so
    it binds the discrete norms as well.
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
    av = _node_values(curve, a)
    # the finite-exponent part is where p and r are finite; nodes sampling an
    # integrable singularity as inf form a null set
    mask = np.isfinite(p.values) & np.isfinite(r.values) & (av != 0.0) & np.isfinite(av)
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
) -> MultiplierBounds:
    """Certified lower bound for the multiplier norm of a from X_p to X_q.

    The best ||a u||_q / ||u||_p over ``trials`` trial functions u: first the
    constant, four indicator arcs at the argmax of |a| (p = q's sup norm) and
    the analytic witness built from the theorem value (exact for constant
    exponents); then, when 1 < p- and p+ < inf, steps of Boyd's power method
    for p-norms from the witness, else from the best of the others if a lies
    in L^r (at p = q, where r = inf and there is no witness, an arc at the
    peak of |a|) and from the constant if not (Boyd, Linear Algebra
    Appl. 9, 1974; Higham, Numer. Math. 62, 1992). A step takes lambda =
    ||a u||_q, h = |a| q (|a| u / lambda)^(q-1) / p and u = (h / mu)^(1/(p-1))
    with mu = ||h||_p', whose certificate is the p-modular of u, so ||u||_p = 1
    and lambda never falls. The steps stop once lambda rises by less than
    1e-12 relative. Every bound is certified, so none overshoots the norm.
    The Hoelder constant K of :func:`multiplier_norm_via_theorem` comes with
    the bounds.
    """
    ok, viol = dominance_check(p, q)
    if not ok:
        raise ValueError(f"dominance q <= p fails at nodes {viol[:8].tolist()}")
    av = _node_values(curve, a)
    # trials vanish where the samples are non-finite (a null set for
    # integrable singularities); their bounds stay certified
    finite = np.isfinite(av)
    n = curve.n_nodes
    pv, qv = p.values, q.values
    theta = np.ones(n)  # q/p, and 1 where q = inf (there p = inf too)
    finite_q = np.isfinite(qv)
    theta[finite_q] = qv[finite_q] / pv[finite_q]
    holder = float(theta.max() + (1.0 - theta).max())

    def bound(g: np.ndarray) -> tuple[float, np.ndarray]:
        """The certified bound of g, and g / ||g||_p."""
        g = np.where(finite, g, 0.0)
        ng = norm_value(curve, g, p)
        if not np.isfinite(ng) or ng <= 0.0:
            return 0.0, g
        with np.errstate(invalid="ignore"):
            product = av * g / ng
        product = np.where(g == 0.0, 0.0, product)  # inf * 0 artifacts
        val = norm_value(curve, product, q)
        # a divergent discrete modular (inf sample of a under g) certifies nothing
        return (float(val) if np.isfinite(val) else 0.0), g / ng

    candidates: list[np.ndarray] = [np.ones(n, dtype=complex)]
    # indicator arcs centered at the largest finite |a|
    center = int(np.argmax(np.where(finite, np.abs(av), -1.0)))
    for frac in (0.5, 0.125, 1 / 32, 1 / 128):
        half = max(1, int(n * frac / 2))
        candidates.append(indicator_arc(curve, center, 2 * half + 1))
    # analytic witness built from the theorem value
    c = multiplier_norm_via_theorem(curve, a, p, q)
    if np.isfinite(c) and c > 0.0:
        w = multiplier_witness(curve, a, p, q, c, 1e-3 * c)
        if w.any():
            candidates.append(w)
    bounds = [bound(g) for g in candidates]
    lower = max(value for value, _ in bounds)
    witness = bounds[5][0] if len(bounds) > 5 else 0.0
    # the steps start from the witness; without one, from the best fixed
    # candidate if a lies in L^r (at p = q an arc at the peak of |a|), else
    # from the constant, which reaches the whole curve
    if witness or not np.isfinite(c):
        lam, u = bounds[5 if witness else 0]
    else:
        lam, u = max(bounds, key=lambda b: b[0])
    steps, rise = 0, 0.0
    if lam > 0.0 and 1.0 < pv.min() and pv.max() < np.inf:
        abs_a, u = np.where(finite, np.abs(av), 0.0), np.abs(u)
        dual = ExponentFunction(pv / (pv - 1.0))
        while steps < trials - len(candidates) and (steps == 0 or rise >= 1e-12):
            h = abs_a * qv * (abs_a * u / lam) ** (qv - 1.0) / pv
            mu = luxemburg_norm(curve, h, dual)
            if not (mu.certified and 0.0 < mu.value < np.inf):
                break
            u = (h / mu.value) ** (1.0 / (pv - 1.0))
            value = norm_value(curve, abs_a * u, q)
            steps, rise, lam = steps + 1, (value - lam) / lam, value
            lower = max(lower, value)
    return MultiplierBounds(lower, c, witness, steps, rise, holder)
