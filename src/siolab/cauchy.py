"""The Cauchy singular integral S and its companions on a Jordan curve.

``apply_S`` is the one entry point; it takes one function (shape (n,)) or a
stack (shape (n, m), one per column). Three paths realize S, chosen from the
curve alone; ``s_path`` names the one that runs.

* ``fft``: on the flagged unit circle S is the exact Fourier multiplier:
  nonnegative modes pass through, negative modes flip sign. Exact to
  rounding.
* ``split``: off the circle, when the spectrum of dtau/dsigma is resolved,
  the kernel is split into the periodic Hilbert kernel (1/2) cot((s - s0)/2),
  applied by the same sign(k) multiplier, plus a smooth remainder R whose
  2-D Fourier coefficients C on an m x m grid are taken once per curve; both
  parts meet in one spectrum and take one inverse FFT, O(n log n + m^2) per
  column. m is set by the curve alone: 128 on the 2:1 ellipse, 256 on
  ``perturbed-circle:0.1,5``, 2048 on ``perturbed-circle:0.3,12`` (m = n
  below n = 2048). C is capped at 64 MiB (m = 2048); a curve still
  unresolved there takes the dense path. An odd n costs what an even n
  costs. Spectral: about 3e-13 at n = 256 on the 2:1 ellipse, 4e-14 at
  n = 2048.
* ``dense``: otherwise (the square, whose dtau/dsigma jumps at the corners)
  the principal value is computed on the full n x n kernel with the
  constant part split off,

      (S f)(t) = f(t) + (1/(pi i)) PV-int (f(tau) - f(t)) / (tau - t) dtau,

  whose removable singularity takes a fourth-order stencil. Algebraic:
  about h^5 on smooth curves (3.7e-5 at n = 256 on the 2:1 ellipse) and
  first order on the square (1.6e-3 at n = 256, 1.0e-4 at n = 4096). The
  constant function is reproduced exactly.

The Riesz projections are P = (I + S)/2 and Q = (I - S)/2, the conjugation
is (H f)(tau) = exp(-i theta(tau)) conj(f(tau)), and adjoints are taken with
respect to the weighted pairing <f, g> = sum f conj(g) w.

``cauchy_offcurve`` takes the off-curve Cauchy integral by the trapezoid rule
at any target, on any curve, in real arithmetic in one small workspace.
``plemelj_residual`` needs those sums at every offset on both sides of the
curve and takes them in one such call; on the unit circle it takes them by
FFT instead, as with equispaced nodes they are a convolution.
``adjoint_residuals`` certifies P and Q on a mode basis that S takes in
blocks of ADJOINT_BLOCK modes, so none of its arrays is larger than the basis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .curves import JordanCurve

__all__ = [
    "PlemeljResidual",
    "AdjointResiduals",
    "apply_S",
    "s_path",
    "riesz_projections",
    "cauchy_offcurve",
    "plemelj_residual",
    "conjugation_H",
    "mode_basis",
    "operator_matrix",
    "adjoint_residuals",
]

MIN_QUADRATURE_NODES = 64
# Rows per block of the dense path's n-column kernel and of the split's scan of |C|.
KERNEL_ROWS = 512
# Bytes of the split's remainder spectrum C, one m x m complex array per curve
# (64 MiB: m = 2048); a curve whose remainder is not resolved within it takes
# the dense path.
SPECTRUM_BYTES = 64 * 2**20
# Bytes of each of the four real n-column arrays of the off-curve sums'
# workspace (16 targets at 2048 nodes), allocated once per call. Fastest in a
# sweep from 32 KiB to 2 MiB on a sio-check pass on ellipse:2,1 (n = 2048),
# one core: larger blocks fault in fresh pages on every call.
OFFCURVE_BYTES = 2**18
# Basis modes per block of the mode-basis certificate, so the 32-mode basis
# of sio-check takes 4 blocks. Fastest in a sweep of 4, 8, 16 and 32 modes
# (the whole basis) on the certificate at the sio-check shapes, one core: 8
# took 16.7 ms against 18.5 ms on the circle at n = 4096 and 8.1 ms against
# 9.5 ms on ellipse:2,1 at n = 2048, with a traced peak of 6.3 MiB against 18.3.
ADJOINT_BLOCK = 8


@dataclass(frozen=True)
class PlemeljResidual:
    """Boundary-limit residuals of the off-curve Cauchy integrals.

    ``residual_plus`` and ``residual_minus`` compare the extrapolated
    interior/exterior boundary limits against P f and Q f at the target
    nodes; the per-offset entries are the raw comparisons at each approach
    distance, which carry an O(offset) Taylor term of their own.
    """

    residual_plus: float
    residual_minus: float
    offsets: tuple[float, ...]
    per_offset_plus: tuple[float, ...]
    per_offset_minus: tuple[float, ...]


@dataclass(frozen=True)
class AdjointResiduals:
    """The mode-basis certificate of P = (I + S)/2 and Q = (I - S)/2.

    Max-norm defects of S* + HSH, P* - HQH, Q* - HPH (``s_residual``,
    ``p_residual``, ``q_residual``) and of P^2 - P, PQ, P + Q - I
    (``p2_minus_p``, ``pq``, ``p_plus_q_minus_i``), all as pairing matrices
    on ``basis_size`` modes; ``s_matrix`` is the pairing matrix of S itself.
    """

    s_residual: float
    p_residual: float
    q_residual: float
    basis_size: int
    p2_minus_p: float
    pq: float
    p_plus_q_minus_i: float
    s_matrix: np.ndarray


def _circle_multiplier(values: np.ndarray) -> np.ndarray:
    """S on the unit circle: sign(k) on the node modes, +1 at k = 0; exact to rounding."""
    n = values.shape[0]
    spectrum = np.fft.fft(values, axis=0)
    sign = np.where(np.fft.fftfreq(n) >= 0.0, 1.0, -1.0)
    spectrum *= sign[:, None] if values.ndim > 1 else sign
    return np.fft.ifft(spectrum, axis=0, out=spectrum)


def _circle_offcurve(spectrum: np.ndarray, rho: float) -> np.ndarray:
    """Off-curve trapezoid sums at rho * tau_t for every node t of the unit circle.

    ``spectrum`` is fft(f) / n along the last axis. The sum
    (1/n) sum_j f_j tau_j / (tau_j - rho tau_t), which is what
    ``cauchy_offcurve`` takes at z = rho tau_t, is a discrete convolution.
    Expanding the kernel in powers of rho (inside) or 1/rho (outside) and
    folding the modes mod n gives it exactly, as one inverse FFT:
    n ifft(c_r rho^r) / (1 - rho^n) for |rho| < 1 and
    -n ifft(c_r rho^(r - n)) / (1 - rho^-n) outside (Henrici, Applied and
    Computational Complex Analysis III, 1986, ch. 13).
    """
    n = spectrum.shape[-1]
    r = np.arange(n)
    if abs(rho) < 1.0:
        weights = rho**r / (1.0 - rho**n)
    else:
        weights = -(rho ** (r - n)) / (1.0 - rho**-n)
    return n * np.fft.ifft(spectrum * weights, axis=-1)


def _quadrature_S(
    curve: JordanCurve,
    F: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Dense principal-value quadrature of S, optionally at target rows only.

    Builds the n x n kernel; the diagonal takes a fourth-order stencil, so the
    order is algebraic: about h^5 on smooth curves (S f = f for
    f = 1/(tau - 2.3) on the 2:1 ellipse has error 3.7e-5 at n = 256 and
    1.2e-9 at n = 2048) and first order on the square (with the pole at
    3 + i: 1.6e-3 at n = 256, 1.0e-4 at n = 4096).
    """
    tau = curve.nodes
    dtau = curve.complex_measure
    single = F.ndim == 1
    V = F[:, None] if single else F
    n = curve.n_nodes
    idx = np.arange(n) if rows is None else np.asarray(rows, dtype=int)
    # removable-singularity value df/dtau at the node: fourth-order stencil for
    # df/dt over the equispaced parameter divided by the exact dtau/dt, which
    # the constructors store as n * complex_measure
    df_dt = (
        -V[(idx + 2) % n] + 8.0 * V[(idx + 1) % n] - 8.0 * V[(idx - 1) % n] + V[(idx - 2) % n]
    ) * (n / 12.0)
    G = df_dt / (n * dtau[idx])[:, None]
    acc = np.empty((idx.size, V.shape[1]), dtype=complex)
    row_sums = np.empty(idx.size, dtype=complex)
    for s in range(0, idx.size, KERNEL_ROWS):
        block = idx[s : s + KERNEL_ROWS]
        with np.errstate(divide="ignore", invalid="ignore"):
            A = dtau[None, :] / (tau[None, :] - tau[block, None])
        A[np.arange(block.size), block] = 0.0
        acc[s : s + KERNEL_ROWS] = A @ V
        row_sums[s : s + KERNEL_ROWS] = A.sum(axis=1)
    acc -= row_sums[:, None] * V[idx]
    acc += G * dtau[idx, None]
    out = V[idx] + acc / (1j * np.pi)
    return out[:, 0] if single else out


def _rounding_tolerance(n: int) -> float:
    """Relative level of a resolved spectrum tail; the kernel's rounding grows like n eps."""
    return 64.0 * n * np.finfo(float).eps


def _tail(spectrum: np.ndarray, start: float) -> float:
    """Largest magnitude among the modes with |k| >= start * m on any axis of m modes."""
    tail = 0.0
    for axis, m in enumerate(spectrum.shape):
        lo = int(np.ceil(start * m))
        tail = max(tail, float(np.abs(np.moveaxis(spectrum, axis, 0)[lo : m - lo + 1]).max()))
    return tail


def _on_grid(values: np.ndarray, m: int) -> np.ndarray:
    """The n-mode trigonometric interpolant of node values at the m angles 2 pi a / m.

    Every (n/m)-th node when m divides n. Otherwise the spectrum is folded
    mod m, so one inverse FFT of m modes sums every node mode at the m angles.
    """
    n = values.size
    if n % m == 0:
        return values[:: n // m]
    folded = np.zeros(m, dtype=complex)
    np.add.at(folded, np.fft.fftfreq(n, 1.0 / n).astype(int) % m, np.fft.fft(values))
    return np.fft.ifft(folded) * (m / n)


def _remainder_coefficients(tau: np.ndarray, velocity: np.ndarray,
                            diagonal: np.ndarray) -> np.ndarray:
    """C = fft2(R on the m x m grid) / m^2 from tau, dtau/dsigma and R(s, s) at 2 pi a / m.

    Entry (a, b) of the grid is R(s_a, s_b) = velocity_b / (tau_b - tau_a)
    - (1/2) cot(pi (b - a) / m), and R(s_a, s_a) on the diagonal. The grid,
    its FFT and the scaling share one m x m array.
    """
    m = tau.size
    half_cot = np.zeros(m)
    half_cot[1:] = 0.5 / np.tan(np.pi * np.arange(1, m) / m)
    # row a of the cot part is the cot row rolled by a, a window of it doubled
    rolled = np.lib.stride_tricks.sliding_window_view(np.concatenate([half_cot, half_cot]), m)
    C = np.subtract(tau[None, :], tau[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(velocity[None, :], C, out=C)
    C -= rolled[m:0:-1]
    C.flat[:: m + 1] = diagonal
    np.fft.fft2(C, out=C)
    C /= m * m
    return C


def _remainder_spectrum(curve: JordanCurve) -> np.ndarray | None:
    """The split's m x m remainder spectrum C, once per curve; None where the dense path runs.

    dtau/dsigma = n * complex_measure / (2 pi) at the nodes counts as resolved
    when the top half of its modes (|k| >= n/4) is at rounding level; a corner
    (the square) leaves a 1/k tail and is not. Then m starts at 64 and
    doubles until the top quarter of C's modes (|k| >= 3m/8 on either axis)
    is at rounding level, or until m = n, where C holds R at every node pair.
    A curve still unresolved when C would pass SPECTRUM_BYTES gets None.
    """
    memo = curve._memo
    if "remainder" not in memo:
        n = curve.n_nodes
        velocity = curve.complex_measure * (n / (2.0 * np.pi))
        spectrum = np.fft.fft(velocity)
        C = None
        if _tail(spectrum, 0.25) <= _rounding_tolerance(n) * np.abs(spectrum).max():
            k = np.fft.fftfreq(n, 1.0 / n)
            if n % 2 == 0:
                k[n // 2] = 0.0
            # R(s, s) = tau''(s) / (2 tau'(s))
            diagonal = np.fft.ifft(spectrum * (1j * k)) / (2.0 * velocity)
            m = min(64, n)
            while C is None and 16 * m * m <= SPECTRUM_BYTES:
                C = _remainder_coefficients(*(_on_grid(v, m)
                                              for v in (curve.nodes, velocity, diagonal)))
                if m < n:
                    # max |C| by row blocks: one |C| would take m^2 floats
                    peak = max(np.abs(C[a : a + KERNEL_ROWS]).max()
                               for a in range(0, m, KERNEL_ROWS))
                    if _tail(C, 0.375) > _rounding_tolerance(m) * peak:
                        C = None
                        m = 2 * m if 2 * m <= n else n
        memo["remainder"] = C
    return memo["remainder"]


def s_path(curve: JordanCurve) -> str:
    """Which realization of S runs: ``fft``, ``split`` or ``dense``.

    ``fft`` on the flagged unit circle. Off it the kernel split runs when the
    curve has a resolved remainder spectrum (``_remainder_spectrum``), and the
    dense kernel otherwise; both need MIN_QUADRATURE_NODES nodes.
    """
    if curve.is_unit_circle:
        return "fft"
    if curve.n_nodes < MIN_QUADRATURE_NODES:
        raise ValueError(f"the dense and split paths need at least {MIN_QUADRATURE_NODES} nodes")
    return "dense" if _remainder_spectrum(curve) is None else "split"


def _split_S(curve: JordanCurve, F: np.ndarray) -> np.ndarray:
    """S by the kernel split; spectral on curves with a resolved remainder spectrum.

    In the node parameter sigma = 2 pi t,

        tau'(s) / (tau(s) - tau(s0)) = (1/2) cot((s - s0)/2) + R(s0, s),

    with R smooth and R(s0, s0) = tau''(s0) / (2 tau'(s0)). The cot part is
    the periodic Hilbert transform, the sign(k) multiplier with mode 0
    removed; on the circle R = i/2 and the split is the circle multiplier.
    The smooth part is R's 2-D trigonometric interpolant on an m x m grid,
    R(s0, s) = sum_kl c_kl e^{i k s0} e^{i l s} with C = fft2(R on the
    grid) / m^2 (``_remainder_spectrum``). Its trapezoid sum over the n nodes,
    (1/n) sum_j R(s0, s_j) f_j, is sum_k e^{i k s0} sum_l c_kl fhat_{-l} / n,
    so with fhat = fft(f) the smooth part adds (2/i) C fhat_{-l} to modes k
    mod n of the cot part's spectrum, and one inverse FFT gives S f at all
    nodes: O(n log n + m^2) per column, and one linear operator per curve
    (Kress, Linear Integral Equations, ch. 13; Helsing and Ojala, J. Comput.
    Phys. 227, 2008; Trefethen and Weideman, SIAM Review 56, 2014). At m = n
    the sum is the trapezoid rule on every row.

    m is a property of the curve: 128 on ``ellipse:2,1``, 256 on
    ``perturbed-circle:0.1,5``, and on ``perturbed-circle:0.3,12`` m = n up
    to n = 2048 and m = 2048 above it (C is then 64 MiB, SPECTRUM_BYTES; its
    top quarter reads 2.4e-12 against a tolerance of 2.9e-11). An odd n
    runs the same doubling, with the grid read off the nodes' trigonometric
    interpolants where m does not divide n: ``sio-check --curve ellipse:2,1``
    takes about the time and memory at n = 2047 that it takes at n = 2048.
    Measured for S f = f, f = 1/(tau - 2.3) on the 2:1 ellipse: error
    2.9e-3 at n = 64, 1.3e-6 at n = 128, 2.9e-13 at n = 256 and 3.8e-14 at
    n = 2048.
    """
    n = curve.n_nodes
    C = _remainder_spectrum(curve)
    modes = np.fft.fftfreq(C.shape[0], 1.0 / C.shape[0]).astype(int)
    single = F.ndim == 1
    V = F[:, None] if single else F
    spectrum = np.fft.fft(V, axis=0)
    smooth = C @ spectrum[-modes % n]
    spectrum *= np.sign(np.fft.fftfreq(n))[:, None]
    spectrum[modes % n] += (2.0 / 1j) * smooth
    out = np.fft.ifft(spectrum, axis=0, out=spectrum)
    return out[:, 0] if single else out


def apply_S(curve: JordanCurve, f) -> np.ndarray:
    """Cauchy singular integral of f on the curve nodes, by the path ``s_path`` names.

    ``f`` has shape (n,) or, for a stack of functions, (n, m) with one
    function per column; a stack is taken in one pass.
    """
    f = np.asarray(f, dtype=complex)
    path = s_path(curve)
    if path == "fft":
        return _circle_multiplier(f)
    if path == "split":
        return _split_S(curve, f)
    return _quadrature_S(curve, f)


def riesz_projections(curve: JordanCurve, f) -> tuple[np.ndarray, np.ndarray]:
    """(P f, Q f) with P = (I + S)/2, Q = (I - S)/2; P f + Q f = f exactly.

    Q f is formed as f - P f so the resolution of the identity holds to the
    last bit, not merely to rounding.
    """
    v = np.asarray(f, dtype=complex)
    pf = 0.5 * (v + apply_S(curve, v))
    return pf, v - pf


def cauchy_offcurve(curve: JordanCurve, f, z) -> np.ndarray | complex:
    """Cauchy integral (1/(2 pi i)) int f(tau)/(tau - z) dtau at points off the curve.

    ``f`` holds node values of shape (n,) or, for a stack of functions, (n, m)
    with one function per column. The result has one entry per target, with
    the m columns along a trailing axis for a stack; a scalar z gives a
    complex number (shape (m,) for a stack). Accuracy degrades within about
    two node spacings of the curve; such targets trigger a warning. Points on
    a node and non-finite points are rejected. Targets go in blocks of
    OFFCURVE_BYTES per real n-column array of one workspace per call. With
    dx + i dy = tau - z and r = dx^2 + dy^2, 1/(tau - z) = A - iB for
    A = dx/r, B = dy/r; A and B each take one real product with each
    function's (n, 2) array [Re, Im] of f dtau, so a column of a stack is
    bitwise the 1-D result.
    """
    v = np.asarray(f, dtype=complex)
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.isfinite(zs)):
        raise ValueError("evaluation points must be finite")
    x, y = curve.nodes.real.copy(), curve.nodes.imag.copy()
    n = x.size
    weighted = v.reshape(n, -1) * curve.complex_measure[:, None]
    weights = [np.column_stack([w.real, w.imag]) for w in weighted.T]
    chunk = max(1, OFFCURVE_BYTES // (8 * n))
    work = np.empty((4, min(chunk, zs.size), n))
    nearest = np.empty(zs.size)
    out = np.empty((len(weights), zs.size), dtype=complex)
    for s in range(0, zs.size, chunk):
        rows = slice(s, min(s + chunk, zs.size))
        dx, dy, r, square = work[:, : rows.stop - s]
        np.subtract(x, zs.real[rows, None], out=dx)
        np.subtract(y, zs.imag[rows, None], out=dy)
        np.multiply(dx, dx, out=r)
        r += np.multiply(dy, dy, out=square)
        nearest[rows] = r.min(axis=1)
        if np.any(nearest[rows] == 0.0):
            raise ValueError("evaluation point lies on a curve node")
        inv = np.divide(1.0, r, out=r)
        A = np.multiply(dx, inv, out=dx)
        B = np.multiply(dy, inv, out=dy)
        for j, w in enumerate(weights):
            aw, bw = A @ w, B @ w
            out[j, rows].real = aw[:, 0] + bw[:, 1]
            out[j, rows].imag = aw[:, 1] - bw[:, 0]
    out /= 2j * np.pi
    if np.any(nearest < (2.0 * curve.max_spacing()) ** 2):
        warnings.warn(
            "evaluation point within two node spacings of the curve; "
            "quadrature error bound degraded",
            stacklevel=2,
        )
    if v.ndim == 1:
        return out[0] if np.ndim(z) else complex(out[0, 0])
    return out.T if np.ndim(z) else out[:, 0]


def _lagrange_at_zero(x: np.ndarray) -> np.ndarray:
    """Weights extrapolating samples at positive abscissae x to 0."""
    w = np.empty(x.size)
    for i in range(x.size):
        others = np.delete(x, i)
        w[i] = np.prod(others / (others - x[i]))
    return w


def plemelj_residual(
    curve: JordanCurve,
    f,
    offsets,
    targets: int = 512,
) -> PlemeljResidual | list[PlemeljResidual]:
    """Compare interior/exterior Cauchy boundary limits with P f and Q f.

    The Cauchy integrals are evaluated at t +- delta * (interior normal)
    for each approach distance delta in ``offsets``; with two or more
    offsets the boundary value is Richardson-extrapolated to delta -> 0,
    removing the O(delta) one-sided Taylor error before comparison.

    ``f`` is one function (shape (n,)) or a stack of functions (shape
    (m, n), one per row); a stack returns one residual per row. Off the
    ``dense`` path (which takes each function at the target rows) S takes
    the stack in one call, so rows match the one-function results to
    rounding. The targets of every offset and both sides go to one
    ``cauchy_offcurve`` call with the whole stack, so a call sets up one
    workspace. On the unit circle, for offsets in (0, 2), the off-curve sums
    are the trapezoid sums of ``cauchy_offcurve``, taken exactly by one FFT
    of the stack and one inverse FFT per offset and side. Offsets must be
    distinct.

    The exterior transform carries the orientation that keeps the unbounded
    component on the left, i.e. the negated curve integral; with the plain
    orientation the exterior limit would recover -Q f instead of Q f (take
    f(tau) = 1/(tau - z0) with z0 inside and compute residues).
    """
    offs = np.sort(np.asarray([float(d) for d in offsets], dtype=float))
    if offs.size == 0 or not np.all(np.isfinite(offs) & (offs > 0)) or np.any(np.diff(offs) == 0):
        raise ValueError("offsets must be positive, finite and distinct")
    if int(targets) < 1:
        raise ValueError(f"targets must be at least 1, got {targets}")
    values = np.asarray(f, dtype=complex)
    stack = np.atleast_2d(values)
    n = curve.n_nodes
    stride = max(1, n // int(targets))
    t_idx = np.arange(0, n, stride)
    path = s_path(curve)
    if path == "dense":
        sv = np.array([_quadrature_S(curve, v, rows=t_idx) for v in stack])
    else:
        sv = apply_S(curve, stack.T).T[:, t_idx]
    pf, qf = 0.5 * (stack[:, t_idx] + sv), 0.5 * (stack[:, t_idx] - sv)
    normal = 1j * curve.unit_tangents[t_idx]  # interior on the left
    base = curve.nodes[t_idx]
    # on the circle the interior normal is -tau, so the targets are (1 -+ d) tau
    spectrum = np.fft.fft(stack, axis=1) / n if path == "fft" else None

    # limits[:, 0] from inside, limits[:, 1] from outside, per offset and target
    limits = np.empty((stack.shape[0], 2, offs.size, t_idx.size), dtype=complex)
    by_fft = (offs < 2.0) & (spectrum is not None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in np.flatnonzero(by_fft):
            limits[:, 0, i] = _circle_offcurve(spectrum, 1.0 - offs[i])[:, t_idx]
            limits[:, 1, i] = _circle_offcurve(spectrum, 1.0 + offs[i])[:, t_idx]
        if not by_fft.all():
            # the other offsets, both sides, in one call: one workspace for all
            z = base + np.array([1.0, -1.0])[:, None, None] * offs[~by_fft, None] * normal
            sums = cauchy_offcurve(curve, stack.T, z.ravel())
            limits[:, :, ~by_fft] = sums.T.reshape(stack.shape[0], *z.shape)
    plus_vals, minus_vals = limits[:, 0], -limits[:, 1]
    w = _lagrange_at_zero(offs) if offs.size >= 2 else None
    results = []
    for plus, minus, p_f, q_f in zip(plus_vals, minus_vals, pf, qf):
        per_plus = tuple(float(np.abs(plus[i] - p_f).max()) for i in range(offs.size))
        per_minus = tuple(float(np.abs(minus[i] - q_f).max()) for i in range(offs.size))
        if w is not None:
            res_plus = float(np.abs(w @ plus - p_f).max())
            res_minus = float(np.abs(w @ minus - q_f).max())
        else:
            res_plus, res_minus = per_plus[0], per_minus[0]
        results.append(PlemeljResidual(res_plus, res_minus, tuple(offs), per_plus, per_minus))
    return results[0] if values.ndim == 1 else results


def conjugation_H(curve: JordanCurve, f) -> np.ndarray:
    """Antilinear involution (H f)(tau) = exp(-i theta(tau)) conj(f(tau)).

    Node samples run along the last axis, so a 2-d input maps row by row.
    """
    return np.exp(-1j * curve.tangent_angles) * np.conj(np.asarray(f, dtype=complex))


def mode_basis(curve: JordanCurve, modes) -> np.ndarray:
    """Rows tau^k for k in ``modes``, normalized in the weighted pairing."""
    modes = np.asarray(modes, dtype=int)
    B = curve.nodes[None, :] ** modes[:, None]
    B /= np.sqrt(np.sum(np.abs(B) ** 2 * curve.arc_weights, axis=-1))[:, None]
    return B


def operator_matrix(curve: JordanCurve, applied: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Pairing matrix M[i, j] = <A b_j, b_i> given A applied to the basis rows."""
    weighted = np.conj(basis)
    weighted *= curve.arc_weights
    return weighted @ applied.T


def centered_modes(basis_size: int) -> np.ndarray:
    half = basis_size // 2
    return np.arange(-half, basis_size - half)


def _apply_block(curve: JordanCurve, rows: np.ndarray) -> None:
    """Fill the quarters of ``rows`` with B, SB, S^2 B and HSHB, from B in the first quarter.

    The second quarter holds HB first, so S takes [B | HB] from ``rows`` in
    one call; a second call takes SB. The outputs of S are freed on return,
    before ``rows`` is paired with the basis.
    """
    k = rows.shape[0] // 4
    rows[k : 2 * k] = conjugation_H(curve, rows[:k])
    SB, SHB = np.split(apply_S(curve, rows[: 2 * k].T).T, 2)
    rows[k : 2 * k] = SB
    rows[2 * k : 3 * k] = apply_S(curve, SB.T).T
    rows[3 * k :] = conjugation_H(curve, SHB)


def adjoint_residuals(curve: JordanCurve, basis_size: int) -> AdjointResiduals:
    """Matrix-level residuals of P^2 = P, PQ = 0, P + Q = I, S* = -HSH, P* = HQH, Q* = HPH.

    Only four pairing matrices are formed: G = M(B), M(SB), M(S^2 B) and
    M(HSHB). The basis B goes in blocks of ADJOINT_BLOCK modes through one
    workspace of four times as many rows: S takes the block's stack [B | HB]
    of modes and conjugates, then its SB, and one ``operator_matrix`` call
    pairs the block's B, SB, S^2 B and HSHB with the whole basis, which fills
    the block's columns of all four matrices. The rest follow by linearity,
    with H antilinear and H^2 = I: M(PB) = (G + M(SB))/2,
    M(QB) = (G - M(SB))/2, M(S PB) = (M(SB) + M(S^2 B))/2,
    M(S QB) = (M(SB) - M(S^2 B))/2, M(HPH B) = (G + M(HSHB))/2 and
    M(HQH B) = (G - M(HSHB))/2. Matrix elements of the adjoints come for free
    from the pairing, (A*)_{ij} = conj(A_{ji}), so both sides of each identity
    are assembled from forward applications only.

    On every path the curve needs MIN_QUADRATURE_NODES nodes and at least two
    per basis mode: on fewer the modes alias (on the 16-node circle the 32
    modes span 16 dimensions) and the residuals certify nothing.
    """
    needed = max(MIN_QUADRATURE_NODES, 2 * basis_size)
    if curve.n_nodes < needed:
        raise ValueError(
            f"a {basis_size}-mode certificate needs at least {needed} nodes, "
            f"got {curve.n_nodes}"
        )
    B = mode_basis(curve, centered_modes(basis_size))
    G, MS, MSS, MHSH = np.empty((4, basis_size, basis_size), dtype=complex)
    workspace = np.empty((4 * min(ADJOINT_BLOCK, basis_size), curve.n_nodes), dtype=complex)
    for s in range(0, basis_size, ADJOINT_BLOCK):
        k = min(ADJOINT_BLOCK, basis_size - s)
        rows = workspace[: 4 * k]
        rows[:k] = B[s : s + k]
        _apply_block(curve, rows)
        paired = operator_matrix(curve, rows, B)
        for M, columns in zip((G, MS, MSS, MHSH), np.split(paired, 4, axis=1)):
            M[:, s : s + k] = columns

    MP, MQ = 0.5 * (G + MS), 0.5 * (G - MS)
    MSP, MSQ = 0.5 * (MS + MSS), 0.5 * (MS - MSS)
    return AdjointResiduals(
        s_residual=float(np.abs(MS.conj().T + MHSH).max()),
        p_residual=float(np.abs(MP.conj().T - 0.5 * (G - MHSH)).max()),
        q_residual=float(np.abs(MQ.conj().T - 0.5 * (G + MHSH)).max()),
        basis_size=basis_size,
        p2_minus_p=float(np.abs(0.5 * (MP + MSP) - MP).max()),
        pq=float(np.abs(0.5 * (MQ + MSQ)).max()),
        p_plus_q_minus_i=float(np.abs(MP + MQ - G).max()),
        s_matrix=MS,
    )
