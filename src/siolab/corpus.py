"""Seeded corpora of trial functions shared by sweeps, probes, and tests."""

from __future__ import annotations

import numpy as np

from .curves import JordanCurve, trig_table

__all__ = [
    "random_trig_polynomial",
    "rational_function",
    "rational_corpus",
]


def random_trig_polynomial(curve: JordanCurve, rng: np.random.Generator,
                           degree: int = 8, count: int | None = None) -> np.ndarray:
    """Random complex trigonometric polynomial in the node angles.

    With ``count=None`` one polynomial, shape (n,); otherwise ``count`` of
    them, one per row of a (count, n) array, from one table exp(i k theta),
    k = -degree..degree, so row i is bitwise the (i+1)-th of ``count``
    one-polynomial calls on the same generator. Each polynomial takes its
    real then its imaginary coefficients from rng.
    """
    table = trig_table(curve, degree)
    polys = np.empty((1 if count is None else count, curve.n_nodes), dtype=complex)
    for row in polys:
        row[:] = table @ (rng.standard_normal(2 * degree + 1)
                          + 1j * rng.standard_normal(2 * degree + 1))
    return polys[0] if count is None else polys


def rational_function(curve: JordanCurve, poles, residues, poly_coeffs=()) -> np.ndarray:
    """Sum of simple poles plus a polynomial part, sampled on the nodes."""
    tau = curve.nodes
    out = np.zeros_like(tau)
    for z0, c in zip(poles, residues):
        out = out + c / (tau - z0)
    if len(poly_coeffs):
        out = out + np.polynomial.polynomial.polyval(tau, np.asarray(poly_coeffs, complex))
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
