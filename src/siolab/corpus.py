"""Seeded corpora of trial functions shared by sweeps, probes, and tests."""

from __future__ import annotations

import numpy as np

from .curves import JordanCurve, trig_polynomial

__all__ = [
    "random_trig_coefficients",
    "random_trig_polynomial",
    "rational_function",
    "rational_corpus",
]


def random_trig_coefficients(rng: np.random.Generator, degree: int,
                             count: int | None = None) -> np.ndarray:
    """Coefficients c_k, k = -degree..degree, with real then imaginary parts
    standard normal from rng: one vector, or ``count`` rows, row i bitwise the
    (i+1)-th of ``count`` one-vector calls on the same generator."""
    if degree < 0:
        raise ValueError(f"a random trigonometric polynomial needs degree >= 0, got {degree}")
    size = 2 * degree + 1
    coefficients = np.empty((1 if count is None else count, size), dtype=complex)
    for row in coefficients:
        row[:] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return coefficients[0] if count is None else coefficients


def random_trig_polynomial(curve: JordanCurve, rng: np.random.Generator,
                           degree: int = 8, count: int | None = None) -> np.ndarray:
    """``trig_polynomial`` of ``random_trig_coefficients``: shape (n,), or (count, n)."""
    return trig_polynomial(curve, random_trig_coefficients(rng, degree, count))


def rational_function(curve: JordanCurve, poles, residues, poly_coeffs=()) -> np.ndarray:
    """Sum of simple poles plus a polynomial part, sampled on the nodes.

    The polynomial sum_k c_k tau^k is taken by Horner's rule in the order of
    numpy's ``polyval``, from c[-1] + 0 tau down, so its values are bitwise
    that call's.
    """
    tau = curve.nodes
    out = np.zeros_like(tau)
    for z0, c in zip(poles, residues):
        out = out + c / (tau - z0)
    if len(poly_coeffs):
        coeffs = np.asarray(poly_coeffs, complex)
        acc = coeffs[-1] + tau * 0
        for ck in coeffs[-2::-1]:
            acc = ck + acc * tau
        out = out + acc
    return out


def rational_corpus(curve: JordanCurve, rng: np.random.Generator, count: int = 10,
                    min_distance: float = 0.75) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Rational functions with poles off the curve, each with its exact P part.

    Items are ``(name, f, pf)`` with f and pf sampled on the nodes. By the
    residue theorem the Cauchy integral of f has the interior boundary limit
    P f = (the exterior-pole part) + (the polynomial part), and Q f = f - P f
    is the interior-pole part (Muskhelishvili, Singular Integral Equations,
    1953, ch. 2; Gakhov, Boundary Value Problems, 1966, ch. 1), so pf is the
    exact P f that S must reproduce.

    Interior pole candidates sit at 0.25 min |tau| and retreat toward the
    origin, so they stay in the disc |z| < min |tau|, which the curve never
    meets and which holds the origin, an interior point: they are inside.
    Exterior ones sit at 2 max |tau| and retreat outward, beyond the disc
    |z| <= max |tau| that holds the curve: they are outside. Every pole keeps
    at least ``min_distance`` from the nodes; an interior pole keeps
    min(min_distance, 0.85 min |tau|), which retreating toward the origin
    always meets.
    """
    tau = curve.nodes
    r_min = float(np.abs(tau).min())
    r_in = 0.25 * r_min
    r_out = 2.0 * float(np.abs(tau).max())

    def place(radius: float, angle: float, inward: bool) -> complex:
        # retreat toward the safe side until the distance constraint holds
        need = min(min_distance, 0.85 * r_min) if inward else min_distance
        for _ in range(8):
            z0 = radius * np.exp(1j * angle)
            if float(np.abs(tau - z0).min()) >= need:
                return z0
            radius = radius * 0.5 if inward else radius * 2.0
        raise ValueError(f"no admissible pole at angle {angle:.3f}")

    corpus: list[tuple[str, np.ndarray, np.ndarray]] = []
    k = 0
    while len(corpus) < count:
        angle = 2.0 * np.pi * rng.random()
        kind = k % 3
        if kind == 0:
            z0 = place(r_out, angle, inward=False)
            vals = pf = rational_function(curve, [z0], [1.0 + 0.5j])
            name = f"pole-out:{z0:.3g}"
        elif kind == 1:
            z0 = place(r_in, angle, inward=True)
            vals = rational_function(curve, [z0], [0.7 - 0.2j])
            pf = np.zeros_like(vals)
            name = f"pole-in:{z0:.3g}"
        else:
            z_in = place(r_in, angle, inward=True)
            z_out = place(r_out, -angle, inward=False)
            vals = rational_function(
                curve, [z_in, z_out], [0.5, -1.0j], poly_coeffs=(0.3, 0.1)
            )
            pf = rational_function(curve, [z_out], [-1.0j], poly_coeffs=(0.3, 0.1))
            name = f"pole-pair:{z_in:.3g},{z_out:.3g}"
        corpus.append((name, vals, pf))
        k += 1
    return corpus
