"""Toeplitz operators on the circle Hardy basis and the dichotomy probe.

T(a) compresses multiplication by a to the analytic side, f -> P(a f); its
companion acts on the anti-analytic side, g -> Q(a g). Finite sections are
rectangular truncations in the Fourier basis; tall sections (extra rows)
probe injectivity without the spurious kernels square truncations invent.
Density of the image is never tested directly: it is equivalent to
triviality of the companion kernel, which is what the probe measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curves import JordanCurve
from .cauchy import (
    _weighted_l2,
    apply_S,
    conjugation_H,
    mode_basis,
    operator_matrix,
    riesz_projections,
)
from .exponents import ExponentFunction, dominance_check

__all__ = [
    "Symbol",
    "KernelReport",
    "BlockIdentityResiduals",
    "DichotomyVerdict",
    "symbol_from_samples",
    "symbol_from_coefficients",
    "symbol_from_preset",
    "singular_power_coefficients",
    "toeplitz_apply",
    "companion_apply",
    "finite_section",
    "numerical_kernel",
    "block_identity_residual",
    "dichotomy_probe",
]


@dataclass(frozen=True)
class Symbol:
    """Multiplier symbol: node samples plus Fourier coefficients a_k, |k| <= degree.

    ``exact_band`` marks trigonometric polynomials whose coefficients vanish
    identically outside the stored band; only those admit finite sections of
    arbitrary size. For sampled or singular symbols the coefficients beyond
    ``degree`` are unknown, not zero.
    """

    values: np.ndarray
    coefficients: np.ndarray
    degree: int
    name: str = "symbol"
    exact_band: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        c = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", c)
        if c.size != 2 * self.degree + 1:
            raise ValueError("coefficient array must have length 2*degree + 1")

    def coefficient(self, k: int) -> complex:
        if abs(k) > self.degree:
            return 0.0 + 0.0j
        return complex(self.coefficients[k + self.degree])

    def coefficient_window(self, kmin: int, kmax: int) -> np.ndarray:
        """Coefficients for modes kmin..kmax, zero-padded outside the band."""
        out = np.zeros(kmax - kmin + 1, dtype=complex)
        lo, hi = max(kmin, -self.degree), min(kmax, self.degree)
        if lo <= hi:
            out[lo - kmin : hi - kmin + 1] = self.coefficients[
                lo + self.degree : hi + self.degree + 1
            ]
        return out

    @property
    def is_zero(self) -> bool:
        return not self.coefficients.any() and not self.values.any()


@dataclass(frozen=True)
class KernelReport:
    dim: int
    sigma_min: float
    sigma_max: float


@dataclass(frozen=True)
class BlockIdentityResiduals:
    """Matrix residuals of the operator-block identities on modes [-N, N].

    ``off_block``: PaP + Q must be block diagonal (Toeplitz section against
    the identity), ``adjoint``: (PaP + Q)* = H (P + QaQ) H,
    ``multiplication_adjoint``: (aI)* = conj(a) I, ``section_consistency``:
    the analytic-side block equals the finite section (circle only, else nan).
    """

    off_block: float
    adjoint: float
    multiplication_adjoint: float
    section_consistency: float
    basis_size: int


@dataclass(frozen=True)
class DichotomyVerdict:
    """Kernel evidence for T(a) and its companion across section sizes.

    ``verdict`` is one of ``T-injective``, ``companion-injective``, ``both``,
    ``under-resolved``. ``fault`` fires only when both sides hold a
    persistent nontrivial numerical kernel with clean trends, which would
    contradict the trivial-kernel-or-dense-image alternative.
    """

    symbol_name: str
    sizes: tuple[int, ...]
    sigma_min_T: tuple[float, ...]
    sigma_min_companion: tuple[float, ...]
    kernel_dim_T: tuple[int, ...]
    kernel_dim_companion: tuple[int, ...]
    verdict: str
    fault: bool

    def as_record(self) -> dict:
        return {
            "symbol": self.symbol_name,
            "sizes": list(self.sizes),
            "sigma_min_T": list(self.sigma_min_T),
            "sigma_min_companion": list(self.sigma_min_companion),
            "verdict": self.verdict,
        }


def symbol_from_samples(curve: JordanCurve, values, degree: int, name: str = "symbol",
                        exact_band: bool = False) -> Symbol:
    """Build a symbol from node samples on the unit circle (FFT coefficients).

    Pass ``exact_band=True`` only when the samples come from a trigonometric
    polynomial of at most the requested degree.
    """
    if not curve.is_unit_circle:
        raise ValueError("Fourier coefficients by FFT need the unit circle")
    v = np.asarray(values, dtype=complex)
    if v.size != curve.n_nodes:
        raise ValueError("sample count differs from the curve")
    if not np.all(np.isfinite(v)):
        raise ValueError("samples contain non-finite values; build from coefficients instead")
    n = v.size
    if n < 2 * degree + 2:
        raise ValueError("not enough samples for the requested degree (aliasing)")
    spectrum = np.fft.fft(v) / n
    coeff = spectrum[np.arange(-degree, degree + 1) % n]
    return Symbol(v, coeff, degree, name, exact_band)


def symbol_from_coefficients(coefficients, n_nodes: int, name: str = "symbol") -> Symbol:
    """Build a symbol from coefficients a_k, k = -K..K; samples are synthesized."""
    c = np.asarray(coefficients, dtype=complex)
    if c.size % 2 == 0:
        raise ValueError("coefficients must cover a symmetric mode range -K..K")
    degree = c.size // 2
    phi = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    k = np.arange(-degree, degree + 1)
    values = np.exp(1j * np.outer(phi, k)) @ c
    return Symbol(values, c, degree, name, exact_band=True)


def _gauss_panels(edges: np.ndarray, points: int = 16) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(points)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def singular_power_coefficients(s: float, degree: int) -> np.ndarray:
    """Fourier coefficients of |exp(i phi) - 1|^s = (2 sin(phi/2))^s, -1 < s < 0.

    The integrand has an integrable algebraic singularity at phi = 0, so the
    quadrature refines panels geometrically toward it while keeping every
    panel short enough to resolve cos(k phi) up to k = degree.
    """
    if not (-1.0 < s < 0.0):
        raise ValueError("exponent must lie in (-1, 0)")
    w_max = min(0.5, 6.0 / max(1, degree))
    cutoff = 1e-18
    edges = [np.pi]
    while edges[-1] > cutoff:
        edges.append(edges[-1] * 0.5)
    edges = np.array(edges[::-1])
    refined = [edges[0]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        pieces = max(1, int(np.ceil((hi - lo) / w_max)))
        refined.extend(np.linspace(lo, hi, pieces + 1)[1:])
    phi, w = _gauss_panels(np.asarray(refined))
    f = (2.0 * np.sin(0.5 * phi)) ** s
    k = np.arange(degree + 1)
    half = np.cos(np.outer(k, phi)) @ (f * w) / np.pi
    # analytic tail over [0, cutoff]: integrand ~ phi^s there and cos(k phi) ~ 1
    half += edges[0] ** (1.0 + s) / (1.0 + s) / np.pi
    coeff = np.concatenate([half[:0:-1], half])
    return coeff.astype(complex)


def symbol_from_preset(spec: str, curve: JordanCurve, degree: int = 300,
                       rng: np.random.Generator | None = None) -> Symbol:
    """Symbol zoo: ``one``, ``monomial:k``, ``cos``, ``one-plus-cos2``,
    ``singular:s``, ``trig-random:deg``."""
    theta = np.angle(curve.nodes)
    spec = spec.strip()
    head, _, args = spec.partition(":")
    if head == "one":
        return symbol_from_samples(curve, np.ones(curve.n_nodes), 0, "one", exact_band=True)
    if head == "monomial":
        k = int(args)
        if abs(k) > degree:
            raise ValueError("monomial degree exceeds the coefficient budget")
        c = np.zeros(2 * abs(k) + 1, dtype=complex) if k else np.ones(1, dtype=complex)
        if k:
            c[abs(k) + k] = 1.0
        return symbol_from_coefficients(c, curve.n_nodes, spec)
    if head == "cos":
        return symbol_from_samples(curve, np.cos(theta).astype(complex), 1, "cos",
                                   exact_band=True)
    if head == "one-plus-cos2":
        return symbol_from_samples(
            curve, (1.0 + np.cos(theta) ** 2).astype(complex), 2, spec, exact_band=True
        )
    if head == "singular":
        s = float(args)
        coeff = singular_power_coefficients(s, degree)
        phi = np.angle(curve.nodes)
        with np.errstate(divide="ignore"):
            values = np.abs(np.exp(1j * phi) - 1.0) ** s
        return Symbol(values, coeff, degree, spec)
    if head == "trig-random":
        deg = int(args)
        rng = np.random.default_rng(0) if rng is None else rng
        c = rng.standard_normal(2 * deg + 1) + 1j * rng.standard_normal(2 * deg + 1)
        return symbol_from_coefficients(c, curve.n_nodes, spec)
    raise ValueError(f"unknown symbol preset {spec!r}")


# Largest relative wrong-side part of an input to T(a) or its companion.
SIDE_TOL = 1e-8


def _compress(curve: JordanCurve, a: Symbol, f, side: int, name: str) -> np.ndarray:
    """The ``side`` part (0: P, 1: Q) of a f, for f on that side up to SIDE_TOL."""
    v = np.asarray(f, dtype=complex)
    if not np.all(np.isfinite(a.values)):
        raise ValueError("symbol samples are not finite; use finite sections instead")
    scale = _weighted_l2(curve, v)
    if scale > 0 and _weighted_l2(curve, riesz_projections(curve, v)[1 - side]) > SIDE_TOL * scale:
        raise ValueError(f"input is not on the {name}")
    return riesz_projections(curve, a.values * v)[side]


def toeplitz_apply(curve: JordanCurve, a: Symbol, f) -> np.ndarray:
    """T(a) f = P(a f) for f on the analytic side (P f = f up to SIDE_TOL)."""
    return _compress(curve, a, f, 0, "analytic side (P f != f)")


def companion_apply(curve: JordanCurve, a: Symbol, g) -> np.ndarray:
    """Companion operator g -> Q(a g) for g on the anti-analytic side."""
    return _compress(curve, a, g, 1, "anti-analytic side (Q g != g)")


def finite_section(a: Symbol, m: int, n: int, which: str = "T") -> np.ndarray:
    """Rectangular m x n truncation of T(a) or of its companion.

    T entries are a_{j-k} on output modes 0..m-1 and input modes 0..n-1;
    the companion reads the reflected coefficients a_{k-j}, i.e. it acts on
    the negative-frequency coefficients of the anti-analytic side. The
    section is real (float64) when the coefficients it reads are real, so
    its SVD runs in real arithmetic; otherwise it is complex.
    """
    if m <= 0 or n <= 0:
        raise ValueError("section shape must be positive")
    if not a.exact_band and a.degree < max(m, n) - 1:
        raise ValueError(
            f"symbol coefficients reach degree {a.degree}, need {max(m, n) - 1}"
        )
    # row j of T reads a_j, a_{j-1}, ..., a_{j-n+1} and row j of the companion
    # a_{-j}, ..., a_{n-1-j}: each is the length-n slice at m-1-j of its window,
    # so sliding views give the rows without an index matrix
    if which == "T":
        window = a.coefficient_window(-(n - 1), m - 1)[::-1]
    elif which == "companion":
        window = a.coefficient_window(-(m - 1), n - 1)
    else:
        raise ValueError("which must be 'T' or 'companion'")
    if not window.imag.any():
        window = window.real
    return sliding_window_view(window, n)[::-1].copy()


def numerical_kernel(section, threshold: float = 1e-8) -> KernelReport:
    """Numerical kernel dimension by relative singular-value threshold."""
    M = np.asarray(section)
    if M.size == 0:
        raise ValueError("empty matrix")
    svals = np.linalg.svd(M, compute_uv=False)
    smax = float(svals[0])
    if smax == 0.0:
        return KernelReport(min(M.shape), 0.0, 0.0)
    dim = int(np.count_nonzero(svals < threshold * smax))
    return KernelReport(dim, float(svals[-1]), smax)


def block_identity_residual(curve: JordanCurve, a: Symbol,
                            basis_size: int) -> BlockIdentityResiduals:
    """Verify the operator-block identities behind the companion construction.

    On modes [-N, N]: PaP + Q must act block diagonally (analytic inputs land
    on the analytic side through the Toeplitz compression, anti-analytic
    inputs pass through unchanged), its adjoint under the weighted pairing
    must equal H (P + QaQ) H, and the adjoint of multiplication must be
    multiplication by the conjugate. The block check is structural (wrong-side
    projection defect of each output), so it applies on any curve; the
    adjoint checks compare pairing matrices, which is basis independent.
    """
    N = basis_size
    modes = np.arange(-N, N + 1)
    B = mode_basis(curve, modes)
    av = a.values
    if not np.all(np.isfinite(av)):
        raise ValueError("block identities need finite symbol samples")

    def S(X):
        return apply_S(curve, X.T).T

    SB = S(B)
    PB, QB = 0.5 * (B + SB), B - 0.5 * (B + SB)
    aPB = av[None, :] * PB
    op1 = 0.5 * (aPB + S(aPB)) + QB          # (PaP + Q) basis-wise
    HB = conjugation_H(curve, B)
    SHB = S(HB)
    PHB = 0.5 * (HB + SHB)
    QHB = HB - PHB
    aQHB = av[None, :] * QHB
    op2_H = PHB + 0.5 * (aQHB - S(aQHB))     # (P + QaQ) applied to H(basis)
    conj_op = conjugation_H(curve, op2_H)    # H (P + QaQ) H

    M = lambda X: operator_matrix(curve, X, B)
    M1 = M(op1)
    adjoint = float(np.abs(M1.conj().T - M(conj_op)).max())

    plus = modes >= 0
    minus = ~plus
    # analytic inputs may not leak to the anti-analytic side, and vice versa
    out_plus = op1[plus]
    s_out = S(out_plus)
    leak_plus = float(_weighted_l2(curve, out_plus - 0.5 * (out_plus + s_out)).max())
    pass_minus = float(_weighted_l2(curve, op1[minus] - B[minus]).max())
    off = max(leak_plus, pass_minus)

    Ma = M(av[None, :] * B)
    mult = float(np.abs(Ma.conj().T - M(np.conj(av)[None, :] * B)).max())

    section_res = float("nan")
    if curve.is_unit_circle and (a.exact_band or a.degree >= N):
        sec = finite_section(a, N + 1, N + 1, "T")
        section_res = float(np.abs(M1[np.ix_(plus, plus)] - sec).max())
    return BlockIdentityResiduals(off, adjoint, mult, section_res, basis_size)


def _trend_is_clean(seq: tuple[float, ...], jitter: float = 1.10) -> bool:
    """Nonincreasing up to multiplicative jitter (plateaus allowed)."""
    return all(b <= a * jitter + 1e-300 for a, b in zip(seq[:-1], seq[1:]))


def dichotomy_probe(
    a: Symbol,
    p: ExponentFunction,
    q: ExponentFunction,
    sizes,
    aspect: int = 8,
    sigma_floor: float = 1e-6,
    threshold: float = 1e-8,
) -> DichotomyVerdict:
    """Probe which of T(a), companion(a) keeps a trivial kernel.

    For each n the probe takes tall (n + aspect) x n sections of both
    operators and tracks the smallest singular value. A side counts as
    injective when sigma_min stays above ``sigma_floor`` at every size with
    a nonincreasing-to-plateau trend. Both sides failing with persistent
    kernels raises the fault flag; anything murkier is under-resolved.
    The trend is read in the order given, so ``sizes`` must be strictly
    increasing, and ``aspect`` must be at least 1: a square or wide section
    can have a kernel that the operator does not.
    """
    if a.is_zero:
        raise ValueError("zero symbol is excluded from the dichotomy probe")
    ok, viol = dominance_check(p, q)
    if not ok:
        raise ValueError(f"dominance q <= p fails at nodes {viol[:8].tolist()}")
    sizes = tuple(int(n) for n in sizes)
    if not sizes:
        raise ValueError("need at least one section size")
    if any(hi <= lo for lo, hi in zip(sizes, sizes[1:])):
        raise ValueError(f"section sizes must be strictly increasing, got {list(sizes)}")
    if int(aspect) < 1:
        raise ValueError(f"aspect must be at least 1, got {aspect}")

    sig_t, sig_c, dim_t, dim_c = [], [], [], []
    for n in sizes:
        m = n + int(aspect)
        rep_t = numerical_kernel(finite_section(a, m, n, "T"), threshold)
        rep_c = numerical_kernel(finite_section(a, m, n, "companion"), threshold)
        sig_t.append(rep_t.sigma_min)
        sig_c.append(rep_c.sigma_min)
        dim_t.append(rep_t.dim)
        dim_c.append(rep_c.dim)

    sig_t, sig_c = tuple(sig_t), tuple(sig_c)
    t_ok = min(sig_t) >= sigma_floor and _trend_is_clean(sig_t)
    c_ok = min(sig_c) >= sigma_floor and _trend_is_clean(sig_c)
    fault = False
    if t_ok and c_ok:
        verdict = "both"
    elif t_ok:
        verdict = "T-injective"
    elif c_ok:
        verdict = "companion-injective"
    else:
        verdict = "under-resolved"
        fault = (
            all(d >= 1 for d in dim_t)
            and all(d >= 1 for d in dim_c)
            and _trend_is_clean(sig_t)
            and _trend_is_clean(sig_c)
        )
    return DichotomyVerdict(
        a.name, sizes, sig_t, sig_c, tuple(dim_t), tuple(dim_c), verdict, fault
    )
