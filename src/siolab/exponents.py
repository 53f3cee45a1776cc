"""Variable exponents p: curve -> [1, inf].

Infinity is an exact exponent value (np.inf), never a large float stand-in:
the set where p = inf enters norms through a sup term and the multiplier's
Hoelder constant through q/p, so it must be representable exactly. Discrete
node values stand in for almost-everywhere statements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .curves import JordanCurve, read_preset

__all__ = [
    "ExponentFunction",
    "LogHolderReport",
    "exponent_constant",
    "exponent_from_preset",
    "essential_bounds",
    "conjugate_exponent_r",
    "dominance_check",
    "log_holder_constant",
]


@dataclass(frozen=True)
class ExponentFunction:
    """Exponent values on curve nodes; np.inf marks the infinity set."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("exponent values must be a 1-d array")
        if np.any(np.isnan(v)) or np.any(v < 1.0):
            raise ValueError("exponent values must lie in [1, inf]")

    @property
    def n_nodes(self) -> int:
        return self.values.size

    @property
    def is_constant(self) -> bool:
        return bool(np.all(self.values == self.values[0]))


@dataclass(frozen=True)
class LogHolderReport:
    """Sampled log-Hoelder diagnostics for an exponent on a curve.

    ``constant_estimate`` is the max of |p(t) - p(tau)| (-log|t - tau|) over
    node pairs with 0 < |t - tau| < 1/2. ``holds`` also asks that the same
    max, restricted to dyadic distance bands [2^-k-1, 2^-k), show no rising
    trend across bands: that is the discrete signature of a jump, which no
    log modulus absorbs.
    """

    holds: bool
    constant_estimate: float
    p_minus: float
    p_plus: float


def exponent_constant(value: float, n_nodes: int) -> ExponentFunction:
    return ExponentFunction(np.full(n_nodes, float(value)))


_NUMBER = r"([0-9]+\.?[0-9]*|\.[0-9]+)"
_SIN_FORM = re.compile(rf"^\s*{_NUMBER}\s*\+\s*(?:{_NUMBER}\s*\*\s*)?abs\(\s*(sin|cos)\s*\)\s*$")


EXPONENT_PRESETS = {
    "step": (lambda theta, a, b: np.where(theta >= 0.0, a, b), "float,float"),
    "logsmooth": (lambda theta, base, amp: base + amp / np.log(np.e + 1.0 / np.abs(theta)),
                  "float,float"),
}


def exponent_from_preset(spec: str, curve: JordanCurve) -> ExponentFunction:
    """Exponent from a number (``inf`` among them), ``A+abs(sin)`` or
    ``A+B*abs(cos)``, or else a preset of ``EXPONENT_PRESETS``, whose builders
    take the node angles: ``step:a,b`` (a on the upper and b on the lower half
    plane) and ``logsmooth:base,amp`` (base + amp / log(e + 1/|theta|))."""
    theta = np.angle(curve.nodes)
    try:
        value = float(spec)
    except ValueError:
        pass
    else:
        return exponent_constant(value, curve.n_nodes)
    m = _SIN_FORM.match(spec)
    if m:
        trig = np.sin(theta) if m.group(3) == "sin" else np.cos(theta)
        return ExponentFunction(float(m.group(1)) + float(m.group(2) or 1.0) * np.abs(trig))
    with np.errstate(divide="ignore"):  # logsmooth's 1 / |theta| at theta = 0
        return ExponentFunction(read_preset("exponent", EXPONENT_PRESETS, spec, theta,
                                            tried=("float", "A+[B*]abs(sin|cos)")))


def essential_bounds(p: ExponentFunction) -> tuple[float, float]:
    """Discrete stand-in for (ess inf, ess sup); the sup may be inf."""
    return float(p.values.min()), float(p.values.max())


def dominance_check(p: ExponentFunction, q: ExponentFunction) -> None:
    """Refuse q > p at any node, naming how many nodes and the first of them."""
    if p.n_nodes != q.n_nodes:
        raise ValueError("exponents live on different node sets")
    viol = np.flatnonzero(q.values > p.values)
    if viol.size:
        raise ValueError(f"dominance q <= p fails: q > p at {viol.size} nodes, "
                         f"first {viol[:8].tolist()}")


def conjugate_exponent_r(p: ExponentFunction, q: ExponentFunction) -> ExponentFunction:
    """Solve 1/q = 1/p + 1/r nodewise.

    Conventions: r = inf where p = q (including both infinite) and r = q
    where p = inf with q finite. Requires q <= p everywhere.
    """
    dominance_check(p, q)
    inv = 1.0 / q.values - 1.0 / p.values  # 1/inf = 0
    r = np.full(p.n_nodes, np.inf)
    pos = inv > 0.0
    r[pos] = 1.0 / inv[pos]
    return ExponentFunction(r)


# Rows per block of the log-Hoelder pair scan, whose maxima do not depend on
# the order of the blocks: 1 MiB per temporary at 4096 nodes. 2+abs(sin) on
# the 4096-node circle traces 3.6 MiB and takes 72-100 ms, against 7.1 MiB
# and 96-105 ms in blocks of 64 rows and 14.1 MiB and 113-119 ms in blocks of
# 128 (fresh processes, one BLAS thread, 2-vCPU host).
SCAN_ROWS = 32


def log_holder_constant(
    p: ExponentFunction,
    curve: JordanCurve,
    max_nodes: int = 4096,
) -> LogHolderReport:
    """Estimate the log-Hoelder constant of p over node pairs closer than 1/2.

    The verdict combines three requirements: 1 < p_- <= p_+ < inf, a finite
    estimate, and no rising trend of the dyadic band maxima (see
    :class:`LogHolderReport`). The estimate is monotone under nested node
    refinement since the pair set only grows. A constant exponent (the
    H^p -> H^q case) has |p(t) - p(tau)| = 0 on every pair, so it returns
    ``LogHolderReport(bounds_ok, 0.0, p_minus, p_plus)`` without a
    scan, which is what the scan gives. The scan takes every
    ceil(n / max_nodes)-th node, so at most max_nodes nodes, SCAN_ROWS rows
    at a time, and scans each unordered pair once: a block's rows meet the
    nodes from its first row on, since the distance and |p(t) - p(tau)| are
    bitwise symmetric. Logs are taken only at the pairs closer than 1/2.
    """
    if p.n_nodes != curve.n_nodes:
        raise ValueError("exponent and curve node counts differ")
    p_minus, p_plus = essential_bounds(p)
    bounds_ok = (1.0 < p_minus) and np.isfinite(p_plus)
    if not np.isfinite(p_plus):
        return LogHolderReport(False, np.inf, p_minus, p_plus)
    if p.is_constant:
        return LogHolderReport(bool(bounds_ok), 0.0, p_minus, p_plus)

    step = -(-curve.n_nodes // max_nodes)
    z = curve.nodes[::step]
    pv = p.values[::step]

    bands = np.zeros(64)
    for s in range(0, z.size, SCAN_ROWS):
        rows = slice(s, s + SCAN_ROWS)
        d = np.abs(z[rows, None] - z[None, s:])
        near = (d > 0.0) & (d < 0.5)
        d = d[near]
        dp = np.abs(pv[rows, None] - pv[None, s:])[near]
        band_idx = np.minimum(np.floor(-np.log2(d)).astype(int), bands.size - 1)
        np.maximum.at(bands, band_idx, dp * (-np.log(d)))
    best = float(bands.max())

    nonempty = np.flatnonzero(bands > 0.0)
    trend_ok = True
    if nonempty.size >= 4:
        tail = nonempty[nonempty.size // 2 :]
        slope = float(np.polyfit(tail.astype(float), bands[tail], 1)[0])
        trend_ok = slope <= 0.05 * max(1.0, float(np.median(bands[nonempty])))
    holds = bounds_ok and np.isfinite(best) and trend_ok
    return LogHolderReport(holds, best, p_minus, p_plus)
