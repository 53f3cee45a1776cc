"""The Cauchy singular integral S and its companions on a Jordan curve.

``apply_S`` is the one entry point; it takes one function (shape (n,)) or a
stack (shape (m, n), one function per row, as every layer lays out a
stack). Two realizations of S run, chosen from the curve alone; ``s_path``
names the one that runs (``circle``, ``split`` or ``dense``).

* The kernel split (``circle`` on the flagged unit circle, ``split`` off it):
  the kernel is split into the periodic Hilbert kernel
  (1/2) cot((s - s0)/2), applied by the sign(k) multiplier, plus a smooth
  remainder R whose 2-D Fourier coefficients C on an m x m grid are taken
  once per curve; both parts meet in one spectrum and take one inverse FFT,
  O(n log n + m^2) per function. On the circle R = i/2, C = [[i/2]] and S is
  the exact Fourier multiplier: nonnegative modes pass through, negative
  modes flip sign, exact to rounding at any n. Off the circle the split runs
  when the spectrum of dtau/dsigma is resolved, and m is set by the curve
  alone: 128 on the 2:1 ellipse, 256 on ``perturbed-circle:0.1,5``, 2048 on
  ``perturbed-circle:0.3,12`` (m = n below n = 2048). C is capped at 64 MiB
  (m = 2048); a curve still unresolved there takes the dense path. An odd n
  costs what an even n costs. Spectral: about 3e-13 at n = 256 on the 2:1
  ellipse, 4e-14 at n = 2048.
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

By the Plemelj-Sokhotski formulas, P f is the interior boundary limit of the
Cauchy integral of f and Q f its negated exterior limit. Nothing here
evaluates that integral off the curve: for the rational functions of
``corpus.rational_corpus`` both limits are known exactly from the residues
(the exterior poles and the polynomial make up P f, the interior poles
Q f), and ``sio-check`` judges ``riesz_projections`` against them.
``adjoint_residuals`` certifies P and Q on a mode basis that S takes
whole, in the Fourier domain: by Parseval a spectrum pairs against the
inverse FFT of the weighted basis, so S runs there as ``_spectral_S``, the
map between the split's two FFTs, and the certificate takes four FFT
batches where three applications of S take six. ``mode_basis``,
``conjugation_H`` and the FFTs write into an ``out`` array and the map
works in place, so the certificate holds the weighted basis and a
workspace of the basis's size, in one allocation, and no other array the
size of either; ``apply_S`` takes an ``out`` array too.

Two quantities are taken once per curve and kept in ``curve._memo``: the
split's remainder spectrum C (off the circle) and the conjugation phase
exp(-i theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import JordanCurve

__all__ = [
    "AdjointResiduals",
    "apply_S",
    "s_path",
    "riesz_projections",
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


@dataclass(frozen=True)
class AdjointResiduals:
    """The mode-basis certificate of P = (I + S)/2 and Q = (I - S)/2.

    Max-norm defects of S* + HSH, P* - HQH, Q* - HPH (``s_residual``,
    ``p_residual``, ``q_residual``) and of P^2 - P, PQ, P + Q - I
    (``p2_minus_p``, ``pq``, ``p_plus_q_minus_i``), all as pairing matrices
    on the basis modes; ``s_matrix`` is the pairing matrix of S itself.
    """

    s_residual: float
    p_residual: float
    q_residual: float
    p2_minus_p: float
    pq: float
    p_plus_q_minus_i: float
    s_matrix: np.ndarray


def _quadrature_S(curve: JordanCurve, F: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Dense principal-value quadrature of S.

    Builds the n x n kernel; the diagonal takes a fourth-order stencil, so the
    order is algebraic: about h^5 on smooth curves (S f = f for
    f = 1/(tau - 2.3) on the 2:1 ellipse has error 3.7e-5 at n = 256 and
    1.2e-9 at n = 2048) and first order on the square (with the pole at
    3 + i: 1.6e-3 at n = 256, 1.0e-4 at n = 4096).
    """
    tau = curve.nodes
    dtau = curve.complex_measure
    n = curve.n_nodes
    idx = np.arange(n)
    # removable-singularity value df/dtau at the node: fourth-order stencil for
    # df/dt over the equispaced parameter divided by the exact dtau/dt, which
    # the constructors store as n * complex_measure
    df_dt = (
        -F[..., (idx + 2) % n] + 8.0 * F[..., (idx + 1) % n]
        - 8.0 * F[..., (idx - 1) % n] + F[..., (idx - 2) % n]
    ) * (n / 12.0)
    G = df_dt / (n * dtau)
    acc = np.empty(F.shape, dtype=complex)
    row_sums = np.empty(n, dtype=complex)
    for s in range(0, n, KERNEL_ROWS):
        block = idx[s : s + KERNEL_ROWS]
        with np.errstate(divide="ignore", invalid="ignore"):
            A = dtau[None, :] / (tau[None, :] - tau[block, None])
        A[np.arange(block.size), block] = 0.0
        acc[..., s : s + KERNEL_ROWS] = (A @ F.T).T
        row_sums[s : s + KERNEL_ROWS] = A.sum(axis=1)
    acc -= row_sums * F
    acc += G * dtau
    acc /= 1j * np.pi
    acc += F
    if out is None:
        return acc
    out[...] = acc
    return out


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

    On the flagged unit circle, tau = e^{is}, the remainder is the constant
    R = i/2 and C = [[i/2]] exactly. Elsewhere dtau/dsigma =
    n * complex_measure / (2 pi) at the nodes counts as resolved when the top
    half of its modes (|k| >= n/4) is at rounding level; a corner (the
    square) leaves a 1/k tail and is not. Then m starts at 64 and doubles
    until the top quarter of C's modes (|k| >= 3m/8 on either axis) is at
    rounding level, or until m = n, where C holds R at every node pair. A
    curve still unresolved when C would pass SPECTRUM_BYTES gets None.
    """
    if curve.is_unit_circle:
        return np.array([[0.5j]])
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
    """Which realization of S runs: ``circle``, ``split`` or ``dense``.

    ``circle`` on the flagged unit circle, where the kernel split is exact at
    any n. Off it the split runs when the curve has a resolved remainder
    spectrum (``_remainder_spectrum``), and the dense kernel otherwise; both
    need MIN_QUADRATURE_NODES nodes.
    """
    if curve.is_unit_circle:
        return "circle"
    if curve.n_nodes < MIN_QUADRATURE_NODES:
        raise ValueError(f"the dense and split paths need at least {MIN_QUADRATURE_NODES} nodes")
    return "dense" if _remainder_spectrum(curve) is None else "split"


def _spectral_S(curve: JordanCurve, spectrum: np.ndarray) -> np.ndarray:
    """fft(S f) from fft(f), in place on one spectrum or a stack of them, one per row.

    On the ``circle`` and ``split`` paths this is S between the forward and
    the inverse FFT of the kernel split. In the node parameter sigma = 2 pi t,

        tau'(s) / (tau(s) - tau(s0)) = (1/2) cot((s - s0)/2) + R(s0, s),

    with R smooth and R(s0, s0) = tau''(s0) / (2 tau'(s0)). The cot part is
    the periodic Hilbert transform, the sign(k) multiplier with mode 0
    removed; on the circle R = i/2, C = [[i/2]] and the split is the exact
    Fourier multiplier, (2/i)(i/2) fhat_0 = fhat_0 restoring mode 0.
    The smooth part is R's 2-D trigonometric interpolant on an m x m grid,
    R(s0, s) = sum_kl c_kl e^{i k s0} e^{i l s} with C = fft2(R on the
    grid) / m^2 (``_remainder_spectrum``). Its trapezoid sum over the n nodes,
    (1/n) sum_j R(s0, s_j) f_j, is sum_k e^{i k s0} sum_l c_kl fhat_{-l} / n,
    so with fhat = fft(f) the smooth part adds (2/i) C fhat_{-l} to modes k
    mod n of the cot part's spectrum: O(m^2) per function on top of the two
    FFTs, and one linear operator per curve (Kress, Linear Integral
    Equations, ch. 13; Helsing and Ojala, J. Comput. Phys. 227, 2008;
    Trefethen and Weideman, SIAM Review 56, 2014). At m = n the sum is the
    trapezoid rule on every row.

    m is a property of the curve: 128 on ``ellipse:2,1``, 256 on
    ``perturbed-circle:0.1,5``, and on ``perturbed-circle:0.3,12`` m = n up
    to n = 2048 and m = 2048 above it (C is then 64 MiB, SPECTRUM_BYTES; its
    top quarter reads 2.4e-12 against a tolerance of 2.9e-11). An odd n
    runs the same doubling, with the grid read off the nodes' trigonometric
    interpolants where m does not divide n: ``sio-check --curve ellipse:2,1``
    takes about the time and memory at n = 2047 that it takes at n = 2048.
    Measured for S f = f, f = 1/(tau - 2.3) on the 2:1 ellipse: error
    2.9e-3 at n = 64, 1.3e-6 at n = 128, 2.9e-13 at n = 256 and 3.8e-14 at
    n = 2048. On the ``dense`` path the map is fft o ``_quadrature_S`` o ifft.
    """
    n = curve.n_nodes
    C = _remainder_spectrum(curve)
    if C is None:
        np.fft.ifft(spectrum, axis=-1, out=spectrum)
        return np.fft.fft(_quadrature_S(curve, spectrum, out=spectrum), axis=-1, out=spectrum)
    modes = np.fft.fftfreq(C.shape[0], 1.0 / C.shape[0]).astype(int)
    # C on the left of the product: 75 us against 84 us for rows @ C.T on 16
    # rows of 2048 nodes with m = 128 (one BLAS thread)
    smooth = (C @ spectrum[..., -modes % n].T).T
    # a complex sign vector: a real one takes a cast buffer the size of a row
    spectrum *= np.sign(np.fft.fftfreq(n)).astype(complex)
    spectrum[..., modes % n] += (2.0 / 1j) * smooth
    return spectrum


def _checked_out(shape: tuple[int, ...], out) -> np.ndarray | None:
    """``out`` itself if it can take a result of this shape: a complex array of that shape."""
    if out is not None and not (isinstance(out, np.ndarray) and out.shape == shape
                                and out.dtype == complex):
        raise ValueError(f"out must be a complex array of shape {shape}, got "
                         f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}")
    return out


def apply_S(curve: JordanCurve, f, out=None) -> np.ndarray:
    """Cauchy singular integral of f on the curve nodes, by the path ``s_path`` names.

    ``f`` has shape (n,) or, for a stack of functions, (m, n) with one
    function per row, as every layer lays out a stack; a stack is taken in
    one pass. The result goes to ``out`` when one is given, a complex array
    of f's shape that may be f itself or a view of it (a block of rows, say).
    The split (``circle`` and ``split``) is a forward FFT, the spectral map
    ``_spectral_S`` in place and an inverse FFT, all into ``out`` when one
    is given.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape[-1:] != (curve.n_nodes,):
        raise ValueError(f"f must hold the {curve.n_nodes} node values along its last axis, "
                         f"a stack one function per row; got shape {f.shape}")
    out = _checked_out(f.shape, out)
    if s_path(curve) == "dense":
        return _quadrature_S(curve, f, out)
    spectrum = _spectral_S(curve, np.fft.fft(f, axis=-1, out=out))
    return np.fft.ifft(spectrum, axis=-1, out=spectrum)


def riesz_projections(curve: JordanCurve, f) -> tuple[np.ndarray, np.ndarray]:
    """(P f, Q f) with P = (I + S)/2, Q = (I - S)/2; P f + Q f = f exactly.

    ``f`` is one function (n,) or an (m, n) stack of rows, as for ``apply_S``.
    P f is formed in the array S filled, and Q f as f - P f so the resolution
    of the identity holds to the last bit, not merely to rounding.
    """
    v = np.asarray(f, dtype=complex)
    pf = apply_S(curve, v)
    pf += v
    pf *= 0.5
    return pf, v - pf


def conjugation_H(curve: JordanCurve, f, out=None) -> np.ndarray:
    """Antilinear involution (H f)(tau) = exp(-i theta(tau)) conj(f(tau)).

    Node samples run along the last axis, so a 2-d input maps row by row. The
    result goes to ``out`` when one is given, a complex array of f's shape
    that may be f itself. The phase exp(-i theta) is taken once per curve
    and kept in ``curve._memo``.
    """
    memo = curve._memo
    if "phase" not in memo:
        memo["phase"] = np.exp(-1j * curve.tangent_angles)
    f = np.asarray(f, dtype=complex)
    out = np.conj(f, out=_checked_out(f.shape, out))
    return np.multiply(memo["phase"], out, out=out)


def mode_basis(curve: JordanCurve, basis_size: int, out=None) -> np.ndarray:
    """Rows tau^k for the centred modes k = -(basis_size // 2), ..., weighted-normalized.

    Row basis_size // 2 holds mode 0. tau^k is the product of |k| factors
    tau (k > 0, one chain upward from that row) or 1/tau (k < 0, one chain
    downward), taken in order, and each row is divided by its own weighted
    norm. The rows go to ``out`` when one is given, a complex array of shape
    (basis_size, n).
    """
    tau, w = curve.nodes, curve.arc_weights
    shape = (basis_size, tau.size)
    B = np.empty(shape, dtype=complex) if _checked_out(shape, out) is None else out
    half = basis_size // 2
    for rows, step in ((range(half, basis_size), tau), (range(half - 1, -1, -1), 1.0 / tau)):
        power = np.ones_like(tau)
        for r in rows:
            if r != half:
                power *= step
            np.multiply(power, 1.0 / np.sqrt(np.vdot(power, power * w).real), out=B[r])
    return B


def operator_matrix(weighted: np.ndarray, applied: np.ndarray) -> np.ndarray:
    """Pairing matrix M[i, j] = <A b_j, b_i> from W = conj(B) w and A applied to the rows of B."""
    return weighted @ applied.T


def adjoint_residuals(curve: JordanCurve, basis_size: int) -> AdjointResiduals:
    """Matrix-level residuals of P^2 = P, PQ = 0, P + Q = I, S* = -HSH, P* = HQH, Q* = HPH.

    Only four pairing matrices are formed: G = M(B), M(SB), M(S^2 B) and
    M(HSHB), with M(X) = W X^T (``operator_matrix``) and W = conj(B) w. By
    Parseval, W ifft(Y)^T = ifft(W) Y^T, so a spectrum Y pairs against
    ifft(W) and S runs as its spectral map (``_spectral_S``), with no
    inverse FFT after it. W is held beside one workspace B of the basis's
    size, in one allocation. ``mode_basis`` writes B, paired into G; then
    W <- ifft(W) and B <- fft(B), the map takes B to the spectrum of SB,
    paired into M(SB), and again to that of S^2 B, paired into M(S^2 B).
    ``mode_basis`` writes B again (both arrays are busy; a third costs
    2 MiB at 32 modes on 4096 nodes); W <- ifft(B dtau) and B <- fft(HB),
    and after the map the pairing is the conjugate of M(HSHB), since
    M(HSHB)_{ij} = <phase conj(S H b_j), b_i> and conj(phase) w = dtau.
    That is four FFT batches of the basis's size on the ``circle`` and
    ``split`` paths, where three applications of S take six; on the dense
    path the map adds an inverse and a forward FFT around the quadrature.
    The rest follow by linearity, with H antilinear and H^2 = I:
    M(PB) = (G + M(SB))/2, M(QB) = (G - M(SB))/2,
    M(S PB) = (M(SB) + M(S^2 B))/2, M(S QB) = (M(SB) - M(S^2 B))/2,
    M(HPH B) = (G + M(HSHB))/2 and M(HQH B) = (G - M(HSHB))/2. Matrix
    elements of the adjoints come for free from the pairing,
    (A*)_{ij} = conj(A_{ji}), so both sides of each identity are assembled
    from forward applications only.

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
    # W and the workspace B share one allocation: apart, they cost warm
    # sio-check passes on the circle at n = 4096 about 1,390 minor page
    # faults each, and together at most one (getrusage around in-process
    # passes)
    W, B = np.empty((2, basis_size, curve.n_nodes), dtype=complex)
    mode_basis(curve, basis_size, out=B)
    np.conjugate(B, out=W)
    W *= curve.arc_weights
    G = operator_matrix(W, B)
    # Parseval, W ifft(Y)^T = ifft(W) Y^T: a spectrum pairs against ifft(W)
    np.fft.ifft(W, axis=-1, out=W)
    spectrum = _spectral_S(curve, np.fft.fft(B, axis=-1, out=B))
    MS = operator_matrix(W, spectrum)
    MSS = operator_matrix(W, _spectral_S(curve, spectrum))
    # <phase conj(S H b_j), b_i> is the conjugate of the pairing of S H b_j
    # against b_i conj(phase) w = b_i dtau
    mode_basis(curve, basis_size, out=B)
    np.fft.ifft(np.multiply(B, curve.complex_measure, out=W), axis=-1, out=W)
    spectrum = _spectral_S(curve, np.fft.fft(conjugation_H(curve, B, out=B), axis=-1, out=B))
    MHSH = operator_matrix(W, spectrum).conj()

    MP, MQ = 0.5 * (G + MS), 0.5 * (G - MS)
    MSP, MSQ = 0.5 * (MS + MSS), 0.5 * (MS - MSS)
    return AdjointResiduals(
        s_residual=float(np.abs(MS.conj().T + MHSH).max()),
        p_residual=float(np.abs(MP.conj().T - 0.5 * (G - MHSH)).max()),
        q_residual=float(np.abs(MQ.conj().T - 0.5 * (G + MHSH)).max()),
        p2_minus_p=float(np.abs(0.5 * (MP + MSP) - MP).max()),
        pq=float(np.abs(0.5 * (MQ + MSQ)).max()),
        p_plus_q_minus_i=float(np.abs(MP + MQ - G).max()),
        s_matrix=MS,
    )
