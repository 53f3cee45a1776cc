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
from .exponents import ExponentFunction, dominance_check

__all__ = [
    "Symbol",
    "KernelReport",
    "DichotomyVerdict",
    "symbol_from_samples",
    "symbol_from_coefficients",
    "symbol_from_preset",
    "symbol_values",
    "singular_power_coefficients",
    "finite_section",
    "numerical_kernel",
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


# presets defined by their node values: degree, and values at the node angles
_SAMPLED_PRESETS = {
    "one": (0, np.ones_like),
    "cos": (1, np.cos),
    "one-plus-cos2": (2, lambda theta: 1.0 + np.cos(theta) ** 2),
}


def symbol_values(spec: str, curve: JordanCurve, degree: int = 300,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Node values of the preset symbol ``spec``; the sample-defined presets
    need no Fourier coefficients, so they take any curve, not only the circle."""
    head = spec.strip().partition(":")[0]
    if head in _SAMPLED_PRESETS:
        return _SAMPLED_PRESETS[head][1](np.angle(curve.nodes)).astype(complex)
    return symbol_from_preset(spec, curve, degree, rng).values


def symbol_from_preset(spec: str, curve: JordanCurve, degree: int = 300,
                       rng: np.random.Generator | None = None) -> Symbol:
    """Symbol zoo: ``one``, ``monomial:k``, ``cos``, ``one-plus-cos2``,
    ``singular:s``, ``trig-random:deg``."""
    spec = spec.strip()
    head, _, args = spec.partition(":")
    if head in _SAMPLED_PRESETS:
        return symbol_from_samples(curve, symbol_values(spec, curve),
                                   _SAMPLED_PRESETS[head][0], spec, exact_band=True)
    if head == "monomial":
        k = int(args)
        if abs(k) > degree:
            raise ValueError("monomial degree exceeds the coefficient budget")
        c = np.zeros(2 * abs(k) + 1, dtype=complex) if k else np.ones(1, dtype=complex)
        if k:
            c[abs(k) + k] = 1.0
        return symbol_from_coefficients(c, curve.n_nodes, spec)
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
