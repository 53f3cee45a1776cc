"""Toeplitz operators on the circle Hardy basis and the dichotomy probe.

T(a) compresses multiplication by a to the analytic side, f -> P(a f). Its
companion g -> Q(a g) is, on the circle, T of the flipped symbol a~_k = a_{-k}
(Boettcher and Silbermann, Analysis of Toeplitz Operators, 2006). Sections
are rectangular truncations of T in the Fourier basis; tall ones probe
injectivity without the spurious kernels square truncations invent. Density
of the image is never tested directly: it is equivalent to triviality of the
companion kernel, which is what the probe measures.

A symbol is its Fourier coefficients, and it holds no curve: the
trigonometric polynomials carry their whole band, ``singular:s`` its closed
form up to the degree asked for. ``Symbol.values(curve)`` samples it at the
node angles of any curve, by its formula where it has one; the probe reads
the coefficients alone.

Sections are read-only views of one coefficient window, so building them
copies nothing. When the coefficients a section reads sit on d0 + gZ with
g > 1, it maps the input modes k = r (mod g) to the output modes
j = r + d0 (mod g) alone: up to a permutation it is block diagonal, and its
singular values are the union of its blocks' (Boettcher and Silbermann).
``monomial:1`` has 1 x 1 blocks, ``cos`` (g = 2) two of about m/2 x n/2;
a dense band (g = 1) is its own one block. The probe takes the sections
one at a time on the calling thread, a's and then the flipped symbol's.
Parallelism is BLAS's: a one-thread pin, which makes report bytes
reproducible, runs the probe on one core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import random_trig_coefficients
from .curves import JordanCurve, read_preset, trig_polynomial
from .exponents import ExponentFunction, dominance_check

__all__ = [
    "Symbol",
    "DichotomyVerdict",
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


@dataclass(frozen=True)
class Symbol:
    """Multiplier symbol: Fourier coefficients a_k, k = -degree..degree, and,
    where it has one, the closed form ``formula`` of its values at angle theta.

    ``exact_band`` marks trigonometric polynomials whose coefficients vanish
    identically outside the stored band; only those admit finite sections of
    arbitrary size. Every preset but ``singular:s`` is one; for that symbol
    the coefficients beyond ``degree`` are unknown, not zero. Values may be
    infinite (``singular:s`` at theta = 0), but the sections read the a_k, so
    those must be finite.
    """

    coefficients: np.ndarray
    name: str = "symbol"
    exact_band: bool = True
    formula: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        object.__setattr__(self, "coefficients", c)
        if not np.all(np.isfinite(c)):
            raise ValueError(f"symbol {self.name!r} has non-finite Fourier coefficients")
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coefficients must cover a symmetric mode range -K..K")

    @property
    def degree(self) -> int:
        return self.coefficients.size // 2

    def values(self, curve: JordanCurve) -> np.ndarray:
        """The node values on ``curve``: the formula at the node angles, or
        else sum_k a_k exp(i k theta) there."""
        if self.formula is None:
            return trig_polynomial(curve, self.coefficients)
        return np.asarray(self.formula(np.angle(curve.nodes)), dtype=complex)

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
        return not self.coefficients.any()


@dataclass(frozen=True)
class DichotomyVerdict:
    """Kernel evidence for T(a) and its companion across section sizes.

    ``verdict`` is one of ``T-injective``, ``companion-injective``, ``both``,
    ``under-resolved``. ``fault`` fires only when both sides hold a
    persistent nontrivial numerical kernel with clean trends, which would
    contradict the trivial-kernel-or-dense-image alternative, and never for
    an exact band of degree above the aspect, which the sections cut off.
    """

    symbol: str
    sizes: tuple[int, ...]
    sigma_min_T: tuple[float, ...]
    sigma_min_companion: tuple[float, ...]
    kernel_dim_T: tuple[int, ...]
    kernel_dim_companion: tuple[int, ...]
    verdict: str
    fault: bool


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


def _singular(name: str, degree: int, seed: int, s: float) -> Symbol:
    def formula(theta):
        with np.errstate(divide="ignore"):  # infinite at theta = 0
            return np.abs(np.exp(1j * theta) - 1.0) ** s

    return Symbol(singular_power_coefficients(s, degree), name, False, formula)


# Builders of (name, degree, seed, *arguments): three with a closed form of
# their values, a_{-K..K}; ``monomial:k``, a_k = 1 alone; ``singular:s`` to
# ``degree``; and ``trig-random:d``, drawn by the corpus from the seed.
SYMBOL_PRESETS = {
    "one": (lambda name, degree, seed: Symbol([1.0], name, formula=np.ones_like), ""),
    "cos": (lambda name, degree, seed: Symbol([0.5, 0.0, 0.5], name, formula=np.cos), ""),
    "one-plus-cos2": (lambda name, degree, seed: Symbol(
        [0.25, 0.0, 1.5, 0.0, 0.25], name, formula=lambda theta: 1.0 + np.cos(theta) ** 2), ""),
    "monomial": (lambda name, degree, seed, k: Symbol(
        np.eye(1, 2 * abs(k) + 1, abs(k) + k)[0], name), "int"),
    "singular": (_singular, "float"),
    "trig-random": (lambda name, degree, seed, d: Symbol(
        random_trig_coefficients(np.random.default_rng(seed), d), name), "int"),
}


def symbol_from_preset(spec: str, degree: int = 0, seed: int = 0) -> Symbol:
    """A symbol of ``SYMBOL_PRESETS``. ``degree`` is how far the coefficients
    of ``singular:s`` reach; every other band is exact. Only ``trig-random``
    draws, from ``np.random.default_rng(seed)``."""
    return read_preset("symbol", SYMBOL_PRESETS, spec, spec.strip(), degree, seed)


def finite_section(a: Symbol, m: int, n: int) -> np.ndarray:
    """Rectangular m x n truncation of T(a): a_{j-k} on output modes 0..m-1
    and input modes 0..n-1. The companion's is that of the flipped symbol.

    The section is real (float64) when the coefficients it reads are real,
    so its SVD runs in real arithmetic; otherwise it is complex. It is a
    read-only view of one length m + n - 1 coefficient window, not a copy:
    copy it before writing to it. The probe splits it by the lattice of the
    window's nonzero offsets (module docstring).
    """
    if m <= 0 or n <= 0:
        raise ValueError("section shape must be positive")
    if not a.exact_band and a.degree < max(m, n) - 1:
        raise ValueError(
            f"symbol coefficients reach degree {a.degree}, need {max(m, n) - 1}"
        )
    # row j reads a_j, a_{j-1}, ..., a_{j-n+1}: the length-n slice at m-1-j of
    # the reversed window, so sliding views give the rows without an index matrix
    window = a.coefficient_window(-(n - 1), m - 1)[::-1]
    if not window.imag.any():
        window = window.real
    return sliding_window_view(window, n)[::-1]


def _blocks(section: np.ndarray) -> list[np.ndarray]:
    """The section itself when the nonzero offsets D of its diagonals
    a_{1-n}..a_{m-1} have g = gcd(D - d0) = 1; else its blocks, columns
    k = r and rows j = r + d0 (mod g), one (count, rows, columns) copy per
    shape. A single offset makes each column a block; a block with no rows,
    and an all-zero window, give no array."""
    m, n = section.shape
    offsets = np.flatnonzero(np.concatenate([section[0, :0:-1], section[:, 0]])) - (n - 1)
    if offsets.size == 0:
        return []
    g = int(np.gcd.reduce(offsets - offsets[0])) or m + n
    if g == 1:
        return [section]
    cols = np.arange(min(g, n))
    rows = (cols + offsets[0]) % g
    heights, widths = np.maximum(-((rows - m) // g), 0), -((cols - n) // g)
    stacks = []
    for h, w in sorted(set(zip(heights.tolist(), widths.tolist()))):
        pick = (heights == h) & (widths == w)
        if h:
            stacks.append(section[rows[pick, None, None] + g * np.arange(h)[:, None],
                                  cols[pick, None, None] + g * np.arange(w)])
    return stacks


def _singular_values(blocks: np.ndarray) -> np.ndarray:
    """Singular values of one section or of each block of a stack, in
    descending order. Every SVD of the probe is this call."""
    return np.linalg.svd(blocks, compute_uv=False)


def _union(svals: list[np.ndarray], size: int) -> np.ndarray:
    """The size = min(m, n) singular values of a section, in descending order,
    from those of its blocks: their union, padded with zeros."""
    return np.sort(np.concatenate([np.zeros(size), *(sv.ravel() for sv in svals)]))[::-1][:size]


def _numerical_kernel(svals: np.ndarray) -> tuple[int, float]:
    """(numerical kernel dimension, sigma_min) of a nonempty section from its
    singular values, by KERNEL_THRESHOLD relative to sigma_max."""
    smax = float(svals[0])
    if smax == 0.0:
        return svals.size, 0.0
    return int(np.count_nonzero(svals < KERNEL_THRESHOLD * smax)), float(svals[-1])


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
    kernels raises the fault flag, unless ``a`` is an exact band of degree
    above the aspect: the band then runs off the foot of every section, which
    has kernels the operator need not have. Anything murkier is under-resolved.
    The trend is read in the order given, so ``sizes`` must be strictly
    increasing, and ``aspect`` must be at least 1: a square or wide section
    can have a kernel that the operator does not.

    Each section is a read-only view, split by its support lattice into
    stacks of blocks, one batched SVD per shape (``monomial:1``'s 520 x 512
    section is 512 blocks of 1 x 1, ``cos``'s two of 260 x 256, a g = 1
    section one block, itself). a's sections go first, then the flipped
    symbol's, the companion's, one at a time, so only one section's blocks
    are alive. A section's singular values are its blocks', sorted and
    padded with zeros to min(m, n).
    """
    if a.is_zero:
        raise ValueError("zero symbol is excluded from the dichotomy probe")
    dominance_check(p, q)
    sizes = tuple(int(n) for n in sizes)
    if not sizes:
        raise ValueError("need at least one section size")
    if any(hi <= lo for lo, hi in zip(sizes, sizes[1:])):
        raise ValueError(f"section sizes must be strictly increasing, got {list(sizes)}")
    aspect = int(aspect)
    if aspect < 1:
        raise ValueError(f"aspect must be at least 1, got {aspect}")

    def kernels(b: Symbol):
        for n in sizes:
            svals = [_singular_values(stack) for stack in _blocks(finite_section(b, n + aspect, n))]
            yield _numerical_kernel(_union(svals, n))

    dim_t, sig_t = zip(*kernels(a))
    dim_c, sig_c = zip(*kernels(Symbol(a.coefficients[::-1], a.name, a.exact_band)))
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
            not (a.exact_band and aspect < a.degree)
            and all(d >= 1 for d in dim_t)
            and all(d >= 1 for d in dim_c)
            and _trend_is_clean(sig_t)
            and _trend_is_clean(sig_c)
        )
    return DichotomyVerdict(a.name, sizes, sig_t, sig_c, dim_t, dim_c, verdict, fault)
