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
direct modular at the returned lambda is the certificate. The multiplier
norm's discrete problem is concave, and the same search, nested, brackets
it from both sides (``multiplier_norm_lower``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import JordanCurve
from .exponents import ExponentFunction, conjugate_exponent_r

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
# which keeps a block's temporaries in cache. sio-check's 24 trial rows take
# 1.15 ms at n = 4096 (three blocks) against 1.69 ms in blocks of 2**16 and
# 1.32 ms in blocks of 2**14, and 0.61 ms at n = 2048 against 0.55 and 0.66
# ms (one BLAS thread, 2-vCPU host); below 2**16 the sio-check benchmarks
# peak 0.1-0.3 MB lower. At n = 65536 a block is one row at any of these
# values: 15.6 ms against 25 ms in one block.
NORM_BLOCK = 2**15
# The multiplier's cap t = max |u| on the infinity set {p = inf} runs over
# this grid (just 0 without an infinity set), and its upper certificate is
# taken UPPER_SLACK above the root of the dual bound.
CAP_GRID = np.arange(33) / 32.0
UPPER_SLACK = 1e-12
# The rounding the multiplier's lower certificate may show past K ||a||_r,
# which bounds it exactly: with constant exponents, where K = 1 and the two
# are equal, it read up to 2 eps past it over 1008 cases on four zoo curves.
LOWER_ROUNDING = 4 * 2.0**-52


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
    """Certified bounds lower_bound <= multiplier norm of a <= upper_bound, the
    norm of a in L^r and the Hoelder constant K with multiplier norm <= K
    theorem value (see :func:`multiplier_norm_via_theorem`)."""

    lower_bound: float
    upper_bound: float
    theorem_value: float
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


def _closed_form_rows(v, pc: float, w):
    """Closed-form scale of each row of v under the constant exponent pc, and its modular there.

    v holds |f| in units of its max, one function per row of a 2-d array;
    the scale is (sum v^pc w)^(1/pc), and the modular of v / scale is the
    certificate. Every power is the scalar power: at p = 2 it is a square,
    five times faster than the array power, and a root by the array power
    takes another routine, which can differ in the last bit. One scratch
    array the shape of v holds both sums' terms.
    """
    terms = v ** pc
    terms *= w
    scale = np.array([s ** (1.0 / pc) for s in np.sum(terms, axis=-1)])
    np.divide(v, scale[:, None], out=terms)
    with np.errstate(over="ignore"):
        np.power(terms, pc, out=terms)
    terms *= w
    return scale, np.sum(terms, axis=-1)


def _modular_value(v_fin, p_fin, w_fin, v_inf, lam: float = 1.0) -> float:
    with np.errstate(over="ignore"):
        integral = float(np.sum((v_fin / lam) ** p_fin * w_fin))
    return integral + (float(v_inf.max() / lam) if v_inf.size else 0.0)


def modular(curve: JordanCurve, f, p: ExponentFunction) -> float:
    """Variable-exponent modular of f over the curve; inf is a valid result."""
    v_fin, p_fin, w_fin, v_inf = _modular_parts(curve, f, p)
    return _modular_value(v_fin, p_fin, w_fin, v_inf)


def _log_sum_exp(a: np.ndarray, slopes: np.ndarray, t: float) -> tuple[float, float]:
    """g(t) = log sum exp(a - slopes t), and its mean slope -g'(t)."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = a - slopes * t
        top = e.max()
        z = np.exp(e - top)
        total = z.sum()
        return float(top + np.log(total)), float(z @ slopes / total)


def _newton_root(g_and_mean_slope, t: float = 0.0) -> tuple[float, int]:
    """Root of a convex decreasing g with mean slope -g' >= 1, by Newton's method from t.

    No bracket is needed: a first step from right of the root lands left of
    it, and later steps climb to it. The steps run until exp(g) is within
    MODULAR_TOL of 1 and g no longer improves, at most MAX_STEPS of them;
    returns the best t and the number of steps.
    """
    g, mean = g_and_mean_slope(t)
    best_t, best_g, iterations = t, g, 0
    while iterations < MAX_STEPS and np.isfinite(g):
        t += g / mean
        g, mean = g_and_mean_slope(t)
        iterations += 1
        if abs(g) < abs(best_g):
            best_t, best_g = t, g
        elif abs(np.expm1(best_g)) <= MODULAR_TOL:
            break
    return best_t, iterations


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
    if v_inf.size == 0 and p.is_constant:
        scale, rho = _closed_form_rows(v_fin[None], float(p_fin[0]), w_fin)
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

    best_t, iterations = _newton_root(lambda t: _log_sum_exp(a, slopes, t))
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
    if p.is_constant and np.isfinite(p.values[0]):
        pc = float(p.values[0])
        step = max(1, NORM_BLOCK // n)
        for s in range(0, m, step):
            a = np.abs(v[s : s + step]).astype(float, copy=False)
            vmax = a.max(axis=1)
            ok = (vmax > 0.0) & np.isfinite(vmax)
            a = a if ok.all() else a[ok]
            a /= vmax[ok, None]
            scale, rho = _closed_form_rows(a, pc, curve.arc_weights)
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


def _log_sums(e: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log sum exp(e) over the last axis, and log (exp(e) @ weights) for the columns of
    weights; -inf for an empty sum."""
    top = e.max(axis=-1, keepdims=True, initial=-np.inf)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.exp(e - top)
        return top[..., 0] + np.log(z.sum(axis=-1)), top + np.log(z @ weights)


def multiplier_norm_lower(curve: JordanCurve, a, p: ExponentFunction,
                          q: ExponentFunction) -> MultiplierBounds:
    """Certified bracket of the discrete multiplier norm N of a from X_p to X_q, by concave duality.

    With s_j = w_j |u_j|^p_j, theta = q/p and b_j = w_j^(1 - theta_j)
    |a_j / lambda|^q_j, rho_q(a u / lambda) = sum b_j s_j^theta_j is concave
    in s, so F(lambda) = max{rho_q(a u / lambda) : sum s_j <= 1} has one
    maximizer, s_j = (theta_j b_j / mu)^(1/(1 - theta_j)) with sum s_j = 1: a
    log-sum-exp root in log mu with slopes r_j/q_j, by the Newton search of
    ``luxemburg_norm``. Linear nodes (theta = 1, p = q) hold mu at least
    their largest b_j, and that node takes the mass left over. N is the
    root of F = 1, and log F is convex and decreasing in log lambda with
    slope -sum q_j b_j s_j^theta_j / F (the envelope theorem), so Newton's
    method needs no bracket there either. The infinity set {p = inf} shares
    one cap t = max |u|, which leaves the budget 1 - t to the other nodes
    and adds h(t), its own terms at |u| = t; t runs over CAP_GRID.

    The lower bound is ||a u||_q for the maximizer at the best grid point
    (u_j = (s_j / w_j)^(1/p_j), and t on the infinity set) scaled to
    ||u||_p = 1, by ``norm_value``. The upper bound is weak duality: for mu
    at least the linear nodes' b_j, budget m gives at most
    mu m + sum (1 - theta_j) b_j s_j(mu)^theta_j, and on [t_k, t_k+1] the
    budget's value falls while h rises; the root of the max over k of that
    bound at 1 - t_k plus h(t_k+1), UPPER_SLACK higher, bounds N. Without an
    infinity set, or with p = inf everywhere, the bracket is about
    UPPER_SLACK wide. Zero and non-finite samples of a take no mass, and
    a = 0 gives [0, 0]. The theorem value of
    :func:`multiplier_norm_via_theorem` and its Hoelder constant K come with
    the bounds.
    """
    theorem = multiplier_norm_via_theorem(curve, a, p, q)  # refuses q > p at any node
    av = np.abs(_node_values(curve, a))
    pv, qv, w = p.values, q.values, curve.arc_weights
    theta = np.ones(curve.n_nodes)  # q/p, and 1 where q = inf (there p = inf too)
    finite_q = np.isfinite(qv)
    theta[finite_q] = qv[finite_q] / pv[finite_q]
    holder = float(theta.max() + (1.0 - theta).max())
    live = np.isfinite(av) & (av > 0.0)
    if not live.any():
        return MultiplierBounds(0.0, 0.0, theorem, holder)

    # in units of scale = max|a|: lambda = scale e^z, and log|a| <= 0
    scale = av[live].max()
    with np.errstate(divide="ignore"):
        la = np.log(av / scale)
    fin = np.flatnonzero(live & np.isfinite(pv))
    lin = theta[fin] >= 1.0
    lin_nodes, nl = fin[lin], fin[~lin]
    k = 1.0 / (1.0 - theta[nl])  # r/q
    log_th = np.log(theta[nl])
    # the infinity set: the terms w |a/lambda|^q t^q where q < inf, and
    # t |a|/lambda where q = inf
    cap = np.isfinite(av) & ~np.isfinite(pv)
    # the cap is searched where both parts are present; alone, the infinity
    # set takes all the mass and the finite nodes all of it
    grid = CAP_GRID if cap.any() and fin.size else CAP_GRID[[-1 if cap.any() else 0]]
    with np.errstate(divide="ignore"):
        log_t, log_m = np.log(grid)[:, None], np.log1p(-grid)
    cap_q = np.flatnonzero(live & ~np.isfinite(pv) & finite_q)
    cap_slopes = np.append(qv[cap_q], 1.0)[:, None]
    sup_la = la[live & ~finite_q].max(initial=-np.inf)
    log_w = np.log(w)
    base = (1.0 - theta) * log_w  # log c_j = base_j + q_j log|a_j|
    # the terms' weights in the slope sum and in the dual bound
    weights = np.column_stack([qv[nl], 1.0 - theta[nl]])

    def budgets(z):
        """At each grid point: log V(1 - t), of its slope sum and of its dual bound, and the
        maximizer (log s_j on the nonlinear nodes, and the best linear node and its mass)."""
        with np.errstate(over="ignore", invalid="ignore"):
            lb, lb_lin = (base[n] + qv[n] * (la[n] - z) for n in (nl, lin_nodes))  # log b_j
        best_lin = lin_nodes[np.argmax(lb_lin)] if lin_nodes.size else -1
        b1 = lb_lin.max(initial=-np.inf)
        alpha = k * (log_th + lb)  # log s_j = alpha_j - k_j log mu
        # each start is at or left of the root: the first tops one s_j at 1,
        # and the budgets shrink as t grows
        log_mu = max(b1, (log_th + lb).max(initial=-np.inf))
        rows = np.full((3, grid.size), -np.inf)
        maximizers = []
        for i in range(grid.size):
            if grid[i] == 1.0:  # no budget: the value and its bound are 0
                maximizers.append((np.full(nl.size, -np.inf), best_lin, 0.0))
                continue
            # log(sum s_j / m) at mu = b1, the least mu the linear nodes allow
            excess = (_log_sum_exp(alpha - k * b1, k, 0.0)[0] - log_m[i]
                      if lin_nodes.size and nl.size else -np.inf)
            rest = 0.0
            if lin_nodes.size and excess <= 0.0:  # the linear nodes take what is left
                log_mu, rest = b1, -np.expm1(excess) * np.exp(log_m[i])
            elif nl.size:
                a0 = alpha - log_m[i] - k * log_mu
                log_mu += _newton_root(lambda t: _log_sum_exp(a0, k, t))[0]
            log_s = alpha - k * log_mu
            terms, w_terms = lb + theta[nl] * log_s, weights
            if rest > 0.0:  # theta = 1 there: no share in the dual's sum
                terms = np.append(terms, b1 + np.log(rest))
                w_terms = np.vstack([weights, [qv[best_lin], 0.0]])
            rows[0, i], (rows[1, i], dual) = _log_sums(terms, w_terms)
            rows[2, i] = np.logaddexp(dual, log_mu + log_m[i])
            maximizers.append((log_s, best_lin, rest))
        return rows, maximizers

    def caps(z):
        """log h(t) and log of its slope sum at each grid point."""
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.concatenate([log_w[cap_q] + qv[cap_q] * (la[cap_q] - z + log_t),
                                log_t + sup_la - z], axis=1)
        log_h, log_dh = _log_sums(e, cap_slopes)
        return log_h, log_dh[:, 0]

    def objective(z, shift, row=0):
        """log F on the grid (shift 0) or log U (shift 1) at z, with the primal values (row 0)
        or the dual bounds (row 2), its mean slope, and the best grid point's maximizer."""
        rows, maximizers = budgets(z)
        log_h, log_dh = caps(z)
        j = np.minimum(np.arange(grid.size) + shift, grid.size - 1)
        log_f, log_d = np.logaddexp(rows[row], log_h[j]), np.logaddexp(rows[1], log_dh[j])
        best = int(np.argmax(log_f))
        with np.errstate(invalid="ignore"):
            mean = float(np.exp(log_d[best] - log_f[best]))
        return float(log_f[best]), mean, grid[best], maximizers[best]

    z_low = _newton_root(lambda z: objective(z, 0)[:2])[0]
    # U >= F, so U's root lies right of F's, where its search starts
    z_high = _newton_root(lambda z: objective(z, 1)[:2], z_low)[0] if grid.size > 1 else z_low

    # the lower certificate: the maximizer at the lower root
    _, _, t, (log_s, best_lin, rest) = objective(z_low, 0)
    u = np.zeros(curve.n_nodes)
    u[nl] = np.exp((log_s - log_w[nl]) / pv[nl])
    if rest > 0.0:
        u[best_lin] = (rest / w[best_lin]) ** (1.0 / pv[best_lin])
    u[cap] = t
    norm_u = norm_value(curve, u, p)
    lower = 0.0
    if 0.0 < norm_u < np.inf:
        lower = float(norm_value(curve, np.where(live, av, 0.0) * (u / norm_u), q))
    # N <= K ||a||_r exactly, so an excess within rounding is given back; a
    # larger one is a fault, left for the caller to see
    if holder * theorem < lower <= holder * theorem * (1.0 + LOWER_ROUNDING):
        lower = holder * theorem

    # the upper certificate: U's dual bound at U's root, UPPER_SLACK higher;
    # every exponent is at least 1, so F(c lambda) <= F(lambda) / c for c >= 1
    # and a bound U > 1 there still gives N <= U lambda
    z_up = z_high + np.log1p(UPPER_SLACK)
    log_u = objective(z_up, 1, row=2)[0]
    with np.errstate(over="ignore"):
        upper = float(scale * np.exp(z_up + max(log_u, 0.0)))
    return MultiplierBounds(lower, upper, theorem, holder)
