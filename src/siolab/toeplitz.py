"""Toeplitz operators on the circle Hardy basis and the dichotomy probe.

T(a) compresses multiplication by a to the analytic side, f -> P(a f); its
companion acts on the anti-analytic side, g -> Q(a g). Finite sections are
rectangular truncations in the Fourier basis; tall sections (extra rows)
probe injectivity without the spurious kernels square truncations invent.
Density of the image is never tested directly: it is equivalent to
triviality of the companion kernel, which is what the probe measures.

Every preset symbol carries exact Fourier coefficients, whatever the curve:
the trigonometric polynomials their whole band, ``singular:s`` its closed
form up to ``degree``. Node values are read at the node angles.

Sections are read-only views of one coefficient window, so building them
copies nothing. The probe builds every section first and then takes the
singular values of the T sections on the calling thread while one worker
thread takes the companion sections of the same shapes; LAPACK releases the
GIL, and each SVD is the call a single thread would make, so the results are
bitwise those of one thread, on one CPU or many.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .curves import JordanCurve, trig_table
from .exponents import ExponentFunction, dominance_check

__all__ = [
    "Symbol",
    "DichotomyVerdict",
    "symbol_from_coefficients",
    "symbol_from_preset",
    "singular_power_coefficients",
    "finite_section",
    "dichotomy_probe",
]

# The probe's cuts: the least sigma_min of an injective side, the kernel's
# singular values relative to sigma_max, and a clean trend's rise per size.
SIGMA_FLOOR = 1e-6
KERNEL_THRESHOLD = 1e-8
TREND_SLACK = 1.10


def _finite_coefficients(coefficients, name: str) -> np.ndarray:
    """Coefficients as a complex array; values may be infinite (``singular:s``
    at its node), but the sections read the a_k, so those must be finite."""
    c = np.asarray(coefficients, dtype=complex)
    if not np.all(np.isfinite(c)):
        raise ValueError(f"symbol {name!r} has non-finite Fourier coefficients")
    return c


@dataclass(frozen=True)
class Symbol:
    """Multiplier symbol: node samples plus Fourier coefficients a_k, |k| <= degree.

    ``exact_band`` marks trigonometric polynomials whose coefficients vanish
    identically outside the stored band; only those admit finite sections of
    arbitrary size. Every preset but ``singular:s`` is one; for that symbol
    the coefficients beyond ``degree`` are unknown, not zero.
    """

    values: np.ndarray
    coefficients: np.ndarray
    degree: int
    name: str = "symbol"
    exact_band: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        c = _finite_coefficients(self.coefficients, self.name)
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


def symbol_from_coefficients(coefficients, curve: JordanCurve, name: str = "symbol") -> Symbol:
    """Build a symbol from coefficients a_k, k = -K..K; its node values are
    synthesized at the node angles, as the sampled presets read them."""
    c = _finite_coefficients(coefficients, name)
    if c.size % 2 == 0:
        raise ValueError("coefficients must cover a symmetric mode range -K..K")
    degree = c.size // 2
    values = trig_table(curve, degree) @ c
    return Symbol(values, c, degree, name, exact_band=True)


def singular_power_coefficients(s: float, degree: int) -> np.ndarray:
    """Fourier coefficients of |exp(i phi) - 1|^s = (2 sin(phi/2))^s, -1 < s < 0.

    Gauss's summation of the binomial series of (1 - t)^(s/2) (1 - 1/t)^(s/2)
    gives a_k = (-1)^k Gamma(1+s) / (Gamma(1+s/2+k) Gamma(1+s/2-k)) (Boettcher
    and Silbermann, Analysis of Toeplitz Operators, 2006); a_0 comes from
    log-gammas and each a_{k+1} from a_k by the ratio (k - s/2) / (k + 1 + s/2).
    """
    if not (-1.0 < s < 0.0):
        raise ValueError("exponent must lie in (-1, 0)")
    k = np.arange(degree)
    a0 = math.exp(math.lgamma(1.0 + s) - 2.0 * math.lgamma(1.0 + 0.5 * s))
    half = np.cumprod(np.concatenate([[a0], (k - 0.5 * s) / (k + 1.0 + 0.5 * s)]))
    return np.concatenate([half[:0:-1], half]).astype(complex)


# presets in closed form: values at the node angles and coefficients a_{-K..K}
_SAMPLED_PRESETS = {
    "one": (np.ones_like, (1.0,)),
    "cos": (np.cos, (0.5, 0.0, 0.5)),
    "one-plus-cos2": (lambda theta: 1.0 + np.cos(theta) ** 2, (0.25, 0.0, 1.5, 0.0, 0.25)),
}


def symbol_from_preset(spec: str, curve: JordanCurve, degree: int = 300,
                       rng: np.random.Generator | None = None) -> Symbol:
    """Symbol zoo: ``one``, ``monomial:k``, ``cos``, ``one-plus-cos2``,
    ``singular:s``, ``trig-random:deg``."""
    spec = spec.strip()
    head, _, args = spec.partition(":")
    if head in _SAMPLED_PRESETS:
        values, c = _SAMPLED_PRESETS[head]
        return Symbol(values(np.angle(curve.nodes)), c, len(c) // 2, spec, exact_band=True)
    if head == "monomial":
        k = int(args)
        if abs(k) > degree:
            raise ValueError("monomial degree exceeds the coefficient budget")
        c = np.zeros(2 * abs(k) + 1, dtype=complex) if k else np.ones(1, dtype=complex)
        if k:
            c[abs(k) + k] = 1.0
        return symbol_from_coefficients(c, curve, spec)
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
        return symbol_from_coefficients(c, curve, spec)
    raise ValueError(f"unknown symbol preset {spec!r}")


def finite_section(a: Symbol, m: int, n: int, which: str = "T") -> np.ndarray:
    """Rectangular m x n truncation of T(a) or of its companion.

    T entries are a_{j-k} on output modes 0..m-1 and input modes 0..n-1;
    the companion reads the reflected coefficients a_{k-j}, i.e. it acts on
    the negative-frequency coefficients of the anti-analytic side. The
    section is real (float64) when the coefficients it reads are real, so
    its SVD runs in real arithmetic; otherwise it is complex. The section is
    a read-only view of one length m + n - 1 coefficient window, not a copy:
    copy it before writing to it.
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
    return sliding_window_view(window, n)[::-1]


def _singular_values(section: np.ndarray) -> np.ndarray:
    """Singular values of one section, in descending order. The probe's SVD
    worker thread calls this and nothing else."""
    return np.linalg.svd(section, compute_uv=False)


def _numerical_kernel(svals: np.ndarray, threshold: float) -> tuple[int, float]:
    """(numerical kernel dimension, sigma_min) of a nonempty section from its
    singular values, by relative threshold against sigma_max."""
    smax = float(svals[0])
    if smax == 0.0:
        return svals.size, 0.0
    return int(np.count_nonzero(svals < threshold * smax)), float(svals[-1])


def _singular_values_of_both(sections_t: list, sections_c: list) -> tuple[list, list]:
    """Singular values of the T sections on this thread and, at the same
    time, of the companion sections on one worker thread; on one CPU the two
    share it. A worker's exception is raised here, after the worker has
    ended."""
    svals_c, failure = [], []

    def companion_side():
        try:
            svals_c.extend(_singular_values(s) for s in sections_c)
        except BaseException as exc:  # handed to the caller, not lost in the thread
            failure.append(exc)

    worker = threading.Thread(target=companion_side, name="siolab-companion-svd")
    worker.start()
    try:
        svals_t = [_singular_values(s) for s in sections_t]
    finally:
        worker.join()
    if failure:
        raise failure[0]
    return svals_t, svals_c


def _trend_is_clean(seq: tuple[float, ...]) -> bool:
    """Nonincreasing up to the factor TREND_SLACK (plateaus allowed)."""
    return all(b <= a * TREND_SLACK + 1e-300 for a, b in zip(seq[:-1], seq[1:]))


def dichotomy_probe(
    a: Symbol,
    p: ExponentFunction,
    q: ExponentFunction,
    sizes,
    aspect: int = 8,
) -> DichotomyVerdict:
    """Probe which of T(a), companion(a) keeps a trivial kernel.

    For each n the probe takes tall (n + aspect) x n sections of both
    operators and tracks the smallest singular value. A side counts as
    injective when sigma_min stays at or above SIGMA_FLOOR at every size
    with a nonincreasing-to-plateau trend. Both sides failing with persistent
    kernels raises the fault flag; anything murkier is under-resolved.
    The trend is read in the order given, so ``sizes`` must be strictly
    increasing, and ``aspect`` must be at least 1: a square or wide section
    can have a kernel that the operator does not.

    All 2 len(sizes) sections are built first, as read-only views. The T
    sections' SVDs then run on the calling thread while one worker thread
    runs the companion's, which have the same shapes. Each singular value
    is bitwise what one thread computes.
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

    shapes = [(n + int(aspect), n) for n in sizes]
    svals_t, svals_c = _singular_values_of_both(
        [finite_section(a, m, n, "T") for m, n in shapes],
        [finite_section(a, m, n, "companion") for m, n in shapes])
    dim_t, sig_t = zip(*(_numerical_kernel(sv, KERNEL_THRESHOLD) for sv in svals_t))
    dim_c, sig_c = zip(*(_numerical_kernel(sv, KERNEL_THRESHOLD) for sv in svals_c))
    t_ok = min(sig_t) >= SIGMA_FLOOR and _trend_is_clean(sig_t)
    c_ok = min(sig_c) >= SIGMA_FLOOR and _trend_is_clean(sig_c)
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
    return DichotomyVerdict(a.name, sizes, sig_t, sig_c, dim_t, dim_c, verdict, fault)
