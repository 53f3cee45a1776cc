"""Discretized rectifiable Jordan curves.

A curve is an ordered list of nodes traced counter-clockwise together with
arc-length quadrature weights and tangent angles. The bounded complementary
component lies on the left of the traced direction and contains the origin;
every built-in curve satisfies this. Arc weights come from the parametric
speed, so smooth periodic integrands are integrated with spectral accuracy.
Nodes, weights and angles must be finite.

``carleson_constant`` measures the hypothesis that makes S bounded on
L^{p(.)}(Gamma): the sup of |Gamma ∩ D(t, eps)| / eps. It is exact in the
radius: the sup over every eps >= lo at the scanned centres, approached as
eps comes down to ``argmax_radius``. One stable sort of each centre's
distances gives every candidate radius, and the winning portion is summed
again with ``math.fsum`` so the circle reads pi to rounding.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi
CARLESON_CENTRES = 512  # the Carleson scan's centres: every (n // 512)-th node

__all__ = [
    "JordanCurve",
    "CarlesonReport",
    "make_unit_circle",
    "make_parametric_curve",
    "make_ellipse",
    "make_square",
    "make_perturbed_circle",
    "curve_from_name",
    "carleson_constant",
    "curve_to_csv",
    "trig_table",
]


@dataclass(frozen=True)
class JordanCurve:
    """Closed curve sampled at quadrature nodes.

    ``nodes[j]`` is a point on the curve, ``arc_weights[j]`` approximates the
    arc measure near it, and ``tangent_angles[j]`` is the angle of the
    oriented tangent there, wrapped to (-pi, pi]. The curve's length is
    ``arc_weights.sum()``. A curve holds no name: a report names it by the
    spec given to ``curve_from_name``.

    ``_memo`` holds curve-level quantities that ``cauchy`` computes once per
    curve (the kernel split's remainder spectrum and the conjugation phase
    exp(-i theta)). Each curve starts with an empty one and it goes with the
    curve; it takes no part in equality.
    """

    nodes: np.ndarray
    arc_weights: np.ndarray
    tangent_angles: np.ndarray
    is_unit_circle: bool = False
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex)
        weights = np.asarray(self.arc_weights, dtype=float)
        angles = np.asarray(self.tangent_angles, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "arc_weights", weights)
        object.__setattr__(self, "tangent_angles", angles)
        if nodes.ndim != 1 or nodes.size < 8:
            raise ValueError("a curve needs at least 8 nodes")
        if weights.shape != nodes.shape or angles.shape != nodes.shape:
            raise ValueError("nodes, arc_weights and tangent_angles must share one shape")
        if not all(np.isfinite(a).all() for a in (nodes, weights, angles)):
            raise ValueError("nodes, arc weights and tangent angles must be finite")
        if np.any(weights <= 0.0):
            raise ValueError("arc weights must be positive")

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def unit_tangents(self) -> np.ndarray:
        return np.exp(1j * self.tangent_angles)

    @property
    def complex_measure(self) -> np.ndarray:
        """Quadrature weights for integration against d(tau) instead of |d(tau)|."""
        return self.unit_tangents * self.arc_weights

    def max_spacing(self) -> float:
        return float(np.abs(np.roll(self.nodes, -1) - self.nodes).max())


@dataclass(frozen=True)
class CarlesonReport:
    """sup of portion length / eps, its centre, and the radius it is approached at."""

    constant_estimate: float
    argmax_point: complex
    argmax_radius: float


def make_unit_circle(n_nodes: int) -> JordanCurve:
    """Equispaced nodes exp(2 pi i j / n) with exact arc weights 2 pi / n."""
    if n_nodes < 8:
        raise ValueError("make_unit_circle needs n_nodes >= 8")
    phi = TWO_PI * np.arange(n_nodes) / n_nodes
    nodes = np.exp(1j * phi)
    weights = np.full(n_nodes, TWO_PI / n_nodes)
    angles = np.angle(np.exp(1j * (phi + 0.5 * np.pi)))
    return JordanCurve(nodes, weights, angles, is_unit_circle=True)


def make_parametric_curve(
    position: Callable,
    derivative: Callable,
    n_nodes: int,
) -> JordanCurve:
    """Sample a 1-periodic parametrization at t_j = j/n.

    ``position`` and ``derivative`` map an array of parameters in [0, 1) to
    points of the plane. Arc weights are |derivative|/n (the periodic
    rectangle rule, so they sum to the curve's length) and tangent angles
    are arg(derivative), which must be finite and nowhere vanish; at a
    corner the supplied derivative should return the left limit. The caller
    vouches that the curve is simple: nothing here tests for crossings.
    Every zoo curve is simple by construction (the circle and the convex
    square and ellipse, and the perturbed circle, a polar graph of a
    positive radius), so code that takes a curve from outside must bring a
    check with it.
    """
    if n_nodes < 8:
        raise ValueError("make_parametric_curve needs n_nodes >= 8")
    t = np.arange(n_nodes) / n_nodes
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sample is refused below
        nodes = np.asarray(position(t), dtype=complex)
        deriv = np.asarray(derivative(t), dtype=complex)
        speed = np.abs(deriv)
        ratio = speed.min() / speed.max()  # nan where the derivative is 0 everywhere
    if not np.all(np.isfinite(speed)):
        raise ValueError("derivative must be finite at every node")
    if not ratio > 1e-13:
        bad = np.flatnonzero(speed <= 1e-13 * speed.max())
        raise ValueError(f"derivative speed min/max ratio {ratio:.3g} is at or below "
                         f"the cut 1e-13, at nodes {bad[:8].tolist()}")
    weights = speed / n_nodes
    angles = np.angle(deriv)
    return JordanCurve(nodes, weights, angles)


def trig_table(curve: JordanCurve, degree: int) -> np.ndarray:
    """The (n, 2 degree + 1) table exp(i k theta_j), k = -degree..degree, at
    the node angles theta_j. Its real part holds the angles k theta until
    their sine and cosine take their places."""
    table = np.empty((curve.n_nodes, 2 * degree + 1), dtype=complex)
    np.multiply.outer(np.angle(curve.nodes), np.arange(-degree, degree + 1.0), out=table.real)
    np.sin(table.real, out=table.imag)
    np.cos(table.real, out=table.real)
    return table


def make_ellipse(a: float, b: float, n_nodes: int) -> JordanCurve:
    if a <= 0 or b <= 0:
        raise ValueError("ellipse semi-axes must be positive")

    def position(t):
        return a * np.cos(TWO_PI * t) + 1j * b * np.sin(TWO_PI * t)

    def derivative(t):
        return TWO_PI * (-a * np.sin(TWO_PI * t) + 1j * b * np.cos(TWO_PI * t))

    return make_parametric_curve(position, derivative, n_nodes)


def make_square(n_nodes: int) -> JordanCurve:
    """Axis-aligned square with vertices at (+-1, +-1), traced counter-clockwise.

    Corners must land on nodes, hence n_nodes divisible by 4. Tangent angles
    at corner nodes use the left limit (the side being finished).
    """
    if n_nodes % 4 != 0:
        raise ValueError("make_square needs n_nodes divisible by 4")
    corners = np.array([1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j])

    def side_index(t):
        s = 4.0 * np.asarray(t, dtype=float)
        # ceil(s) - 1 gives the left limit at corner parameters
        return (np.ceil(s).astype(int) - 1) % 4, s

    def position(t):
        k, s = side_index(t)
        frac = s - (np.ceil(s) - 1.0)
        start = corners[k]
        end = corners[(k + 1) % 4]
        return start + frac * (end - start)

    def derivative(t):
        k, _ = side_index(t)
        return 4.0 * (corners[(k + 1) % 4] - corners[k])

    return make_parametric_curve(position, derivative, n_nodes)


def make_perturbed_circle(amp: float, freq: int, n_nodes: int) -> JordanCurve:
    """Radially perturbed circle r(phi) = 1 + amp cos(freq phi)."""
    if not (abs(amp) < 1.0):
        raise ValueError("perturbation amplitude must satisfy |amp| < 1")
    freq = int(freq)

    def position(t):
        phi = TWO_PI * t
        return (1.0 + amp * np.cos(freq * phi)) * np.exp(1j * phi)

    def derivative(t):
        phi = TWO_PI * t
        r = 1.0 + amp * np.cos(freq * phi)
        dr = -amp * freq * np.sin(freq * phi)
        return TWO_PI * (dr + 1j * r) * np.exp(1j * phi)

    return make_parametric_curve(position, derivative, n_nodes)


def curve_from_name(spec: str, n_nodes: int) -> JordanCurve:
    """Build a zoo curve from a name like ``circle`` or ``ellipse:2,1``."""
    head, _, args = spec.partition(":")
    head = head.strip().lower()
    if head == "circle":
        return make_unit_circle(n_nodes)
    if head == "square":
        return make_square(n_nodes)
    if head == "ellipse":
        try:
            a, b = (float(x) for x in args.split(","))
        except ValueError as exc:
            raise ValueError(f"ellipse spec needs 'ellipse:a,b', got {spec!r}") from exc
        return make_ellipse(a, b, n_nodes)
    if head == "perturbed-circle":
        try:
            amp_s, freq_s = args.split(",")
            amp, freq = float(amp_s), int(freq_s)
        except ValueError as exc:
            raise ValueError(
                f"perturbed-circle spec needs 'perturbed-circle:amp,freq', got {spec!r}"
            ) from exc
        return make_perturbed_circle(amp, freq, n_nodes)
    raise ValueError(f"unknown curve {spec!r}")


def carleson_constant(curve: JordanCurve) -> CarlesonReport:
    """sup over eps >= lo of portion(t, eps) / eps at the scanned centres t.

    portion(t, eps) = |Gamma ∩ D(t, eps)| sums the weights of the nodes with
    |tau - t| < eps, a step function of eps. Between two sorted distances
    portion / eps falls, so its sup over eps >= lo = 2 * ``max_spacing()`` is
    the largest of portion(lo) / lo and the limits as eps comes down to a
    distance d >= lo, where the disc takes in the nodes at d too: the running
    sum of the sorted weights over max(d, lo). The sup is approached as eps
    comes down to ``argmax_radius``, and no radius grid or upper radius is
    needed. The centres are every (n // CARLESON_CENTRES)-th node, every node
    below 2 * CARLESON_CENTRES. On the circle the value is pi (eps = 2), on
    the square 8 / sqrt(5) (a side's midpoint, eps = sqrt(5)), and on
    ``ellipse:2,1`` 2 sqrt(3) E(3/4) (the centre +-i, eps = 4 / sqrt(3)).

    The winning centre's portion is summed again with ``math.fsum``: on the
    4096-node circle the running sum misses pi by 6.8e-14 and a pairwise
    ``np.sum`` by 5.7e-16, where ``fsum`` reads pi to 2.8e-16.

    Each distance row is sorted stably: on a convex curve it is one rise and
    one fall, which a run-merging sort orders in near-linear time, about a
    quarter of quicksort's time on the 4096-node circle. Tied distances fall
    all inside or all outside a disc, so only their order within a tie could
    differ from another sort.
    """
    n = curve.n_nodes
    lo = 2.0 * curve.max_spacing()
    z = curve.nodes
    w = curve.arc_weights
    best = -np.inf
    for i in range(0, n, max(1, n // CARLESON_CENTRES)):
        d = np.abs(z - z[i])
        order = np.argsort(d, kind="stable")
        ratios = np.cumsum(w[order]) / np.maximum(d[order], lo)
        j = int(np.argmax(ratios))
        if ratios[j] > best:
            best, centre = ratios[j], i
            inside, radius = w[order[: j + 1]], max(float(d[order[j]]), lo)
    return CarlesonReport(math.fsum(inside) / radius, complex(z[centre]), radius)


def curve_to_csv(curve: JordanCurve) -> str:
    """CSV rows ``j, Re tau, Im tau, w, theta``."""
    buf = io.StringIO()
    buf.write("j,re,im,weight,theta\n")
    for j in range(curve.n_nodes):
        z = curve.nodes[j]
        row = (float(z.real), float(z.imag), float(curve.arc_weights[j]),
               float(curve.tangent_angles[j]))
        buf.write(f"{j}," + ",".join(repr(x) for x in row) + "\n")
    return buf.getvalue()
