"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
from scipy.optimize import brentq
from scipy.special import ellipe

from siolab.cauchy import adjoint_residuals, apply_S, riesz_projections
from siolab.corpus import random_trig_polynomial, rational_corpus
from siolab.curves import carleson_constant
from siolab.exponents import ExponentFunction, exponent_constant
from siolab.spaces import (
    luxemburg_norm,
    multiplier_norm_lower,
    multiplier_norm_via_theorem,
    norm_value,
)
from siolab.toeplitz import dichotomy_probe, symbol_from_preset


class _Criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.start = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok else "FAIL"
        print(f"[criterion {self.number:02d}] {status} {self.title} "
              f"({elapsed:.1f}s) {detail}")
        assert ok, f"criterion {self.number}: {self.title} {detail}"
        return elapsed


def test_criterion_01_circle_backend_exactness(circle512):
    crit = _Criterion(1, "circle backend exactness")
    c = circle512
    phi = np.angle(c.nodes)
    worst_s = 0.0
    for n in range(-64, 65):
        e_n = np.exp(1j * n * phi)
        expected = e_n if n >= 0 else -e_n
        worst_s = max(worst_s, np.abs(apply_S(c, e_n) - expected).max())
    B = np.exp(1j * np.outer(np.arange(-64, 64), phi))  # 128 modes
    P = lambda X: np.stack([riesz_projections(c, row)[0] for row in X])
    Q = lambda X: np.stack([riesz_projections(c, row)[1] for row in X])
    PB, QB = P(B), Q(B)
    worst_proj = max(
        np.abs(P(PB) - PB).max(),
        np.abs(P(QB)).max(),
        np.abs(PB + QB - B).max(),
    )
    elapsed = crit.finish(
        worst_s < 1e-12 and worst_proj < 1e-12,
        f"multiplier residual {worst_s:.2e}, projection residual {worst_proj:.2e}",
    )
    assert elapsed < 1.0


def test_criterion_02_plemelj_suite(circle8192, ellipse8192):
    # the boundary limits of the Cauchy integral of a rational function are
    # P f = exterior poles + polynomial and Q f = interior poles (residues)
    crit = _Criterion(2, "Plemelj boundary limits, 10 rational functions")
    worst = 0.0
    for curve in (circle8192, ellipse8192):
        rng = np.random.default_rng(101)
        for _, f, pf in rational_corpus(curve, rng, count=10):
            p_f, q_f = riesz_projections(curve, f)
            worst = max(worst, np.abs(p_f - pf).max(), np.abs(q_f - (f - pf)).max())
    elapsed = crit.finish(worst < 1e-12, f"max residual {worst:.2e} against the exact limits")
    assert elapsed < 30.0


def test_criterion_03_adjoint_identities(circle4096, ellipse8192):
    crit = _Criterion(3, "adjoint identities via conjugation")
    circ = adjoint_residuals(circle4096, 64)
    elli = adjoint_residuals(ellipse8192, 32)
    circ_worst = max(circ.s_residual, circ.p_residual, circ.q_residual)
    elli_worst = max(elli.s_residual, elli.p_residual, elli.q_residual)
    elapsed = crit.finish(
        circ_worst < 1e-10 and elli_worst < 1e-3,
        f"circle {circ_worst:.2e}, ellipse {elli_worst:.2e}",
    )
    assert elapsed < 30.0


def test_criterion_04_luxemburg_norm(circle1024):
    crit = _Criterion(4, "Luxemburg norm: closed form, fixed point, scalar oracle")
    c = circle1024
    n = 1024
    ok = True
    detail = []
    # constant exponent closed form A L^(1/p)
    for p_val, amp, width in [(2.0, 1.0, n), (3.0, 2.0, 300), (5.5, 0.7, 64)]:
        f = np.zeros(n, complex)
        f[:width] = amp
        want = amp * (width * 2 * np.pi / n) ** (1.0 / p_val)
        got = norm_value(c, f, exponent_constant(p_val, n))
        ok &= abs(got - want) <= 1e-10 * want
    # fixed point on a 100-function random corpus
    rng = np.random.default_rng(404)
    theta = np.angle(c.nodes)
    presets = [
        exponent_constant(2.0, n),
        exponent_constant(3.3, n),
        ExponentFunction(2.0 + np.abs(np.sin(theta))),
        ExponentFunction(np.where(np.arange(n) % 5 == 0, 1.2, 4.0)),
    ]
    worst_fix = 0.0
    for i in range(100):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res = luxemburg_norm(c, f, presets[i % 4])
        worst_fix = max(worst_fix, abs(res.modular_at_value - 1.0))
    ok &= worst_fix <= 1e-10
    detail.append(f"fixed-point defect {worst_fix:.1e}")
    # two-piece exponent against the scalar root oracle
    p = ExponentFunction(np.where(np.arange(n) < n // 2, 2.0, 4.0))
    got = norm_value(c, np.ones(n), p)
    oracle = brentq(lambda lam: np.pi / lam**2 + np.pi / lam**4 - 1.0, 0.5, 10.0, xtol=1e-14)
    ok &= abs(got - oracle) <= 1e-8
    detail.append(f"two-piece vs oracle {abs(got - oracle):.1e}")
    elapsed = crit.finish(ok, "; ".join(detail))
    assert elapsed < 10.0


def test_criterion_05_function_norm_axioms(circle512):
    crit = _Criterion(5, "norm axioms: homogeneity, triangle, lattice, Fatou")
    c = circle512
    n = 512
    rng = np.random.default_rng(505)
    theta = np.angle(c.nodes)
    presets = [
        exponent_constant(2.0, n),
        exponent_constant(4.5, n),
        ExponentFunction(1.5 + np.abs(np.sin(theta))),
    ]
    violations = 0
    for trial in range(60):
        p = presets[trial % 3]
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        scale = float(np.exp(3.0 * rng.standard_normal()))
        nf, ng = norm_value(c, f, p), norm_value(c, g, p)
        if abs(norm_value(c, scale * f, p) - scale * nf) > 1e-10 * max(1.0, scale * nf):
            violations += 1
        if norm_value(c, f + g, p) > nf + ng + 1e-10:
            violations += 1
        shrink = rng.random(n)
        if norm_value(c, f * shrink, p) > nf + 1e-10:
            violations += 1
    # Fatou: truncations increase to the full norm
    h = np.exp(4.0 * rng.standard_normal(n))
    p = presets[2]
    previous = 0.0
    for cut in (0.5, 2.0, 8.0, 32.0, 128.0, np.inf):
        value = norm_value(c, np.minimum(h, cut), p)
        if value < previous - 1e-10:
            violations += 1
        previous = value
    if abs(previous - norm_value(c, h, p)) > 1e-10 * previous:
        violations += 1
    crit.finish(violations == 0, f"{violations} violations over the corpus")


def test_criterion_06_holder_inequality(circle512, holder_ratio):
    crit = _Criterion(6, "generalized Hoelder ratio <= 2, 1000 trials")
    c = circle512
    n = 512
    theta = np.angle(c.nodes)
    rng = np.random.default_rng(606)
    pairs = [
        (exponent_constant(4.0, n), exponent_constant(4.0, n)),
        (exponent_constant(3.0, n), exponent_constant(6.0, n)),
        (exponent_constant(2.0, n), exponent_constant(np.inf, n)),
        (ExponentFunction(2.0 + np.abs(np.sin(theta))),
         ExponentFunction(3.0 + np.cos(theta))),
        (exponent_constant(4.0, n), ExponentFunction(2.5 + np.abs(np.cos(theta)))),
    ]
    worst = 0.0
    violations = 0
    for p, r in pairs:
        q = ExponentFunction(1.0 / (1.0 / p.values + np.where(np.isinf(r.values), 0.0, 1.0 / r.values)))
        for _ in range(200):
            f = random_trig_polynomial(c, rng, degree=6)
            g = random_trig_polynomial(c, rng, degree=6)
            _, _, ratio, fault = holder_ratio(c, f, g, p, q, r)
            worst = max(worst, ratio)
            if ratio > 2.0 + 1e-10 or fault:
                violations += 1
    crit.finish(violations == 0, f"worst ratio {worst:.4f} over 1000 trials, 5 triples")


def test_criterion_07_multiplier_theorem(circle1024):
    crit = _Criterion(7, "multiplier norms: theorem vs the certified bracket")
    c = circle1024
    n = 1024
    theta = np.angle(c.nodes)
    rng = np.random.default_rng(707)
    arc = np.zeros(n, complex)
    arc[72:328] = 1.0  # an indicator of 256 nodes about node 200
    symbols = [
        np.ones(n, complex),
        np.cos(theta).astype(complex),
        (1.0 + np.cos(theta) ** 2).astype(complex),
        (2.0 + np.sin(theta)).astype(complex),
        np.exp(1j * theta),
        arc,
    ]
    while len(symbols) < 20:
        symbols.append(random_trig_polynomial(c, rng, degree=6))
    triples = [(4.0, 2.0), (3.0, 2.0), (2.0, 2.0)]  # r = 4, 6, inf
    worst_gap = worst_width = 0.0
    ok = True
    for p_val, q_val in triples:
        p, q = exponent_constant(p_val, n), exponent_constant(q_val, n)
        for a in symbols:
            bounds = multiplier_norm_lower(c, a, p, q)
            theorem, lower = multiplier_norm_via_theorem(c, a, p, q), bounds.lower_bound
            # constant exponents: the discrete multiplier norm is ||a||_r
            gap = abs(lower - theorem) / theorem
            width = (bounds.upper_bound - lower) / lower
            worst_gap, worst_width = max(worst_gap, gap), max(worst_width, width)
            ok &= gap <= width <= 1e-10 and lower <= theorem * (1.0 + 1e-9)
    elapsed = crit.finish(
        ok,
        f"20 symbols x 3 triples: worst lower-bound gap {worst_gap:.2e}, "
        f"worst bracket width {worst_width:.2e}",
    )
    assert elapsed < 120.0


def test_criterion_08_carleson_constants(circle4096, ellipse4096):
    crit = _Criterion(8, "Carleson constants: circle and ellipse closed forms")
    # closed forms: pi on the circle at eps = 2, and on ellipse:2,1 its perimeter
    # 8 E(3/4) times sqrt(3) / 4 at the centre +-i and eps = 4 / sqrt(3)
    circle = carleson_constant(circle4096).constant_estimate
    circle_err = abs(circle - np.pi) / np.pi
    ellipse = carleson_constant(ellipse4096).constant_estimate
    ellipse_err = abs(ellipse - 2.0 * np.sqrt(3.0) * ellipe(0.75))
    crit.finish(
        circle_err <= 2.9e-16 and ellipse_err <= 1e-6,
        f"circle {circle_err:.1e} relative off pi, ellipse {ellipse_err:.1e} off 2 sqrt(3) E(3/4)",
    )


def test_criterion_09_dichotomy_probe(circle1024):
    crit = _Criterion(9, "trivial-kernel / dense-image dichotomy probe")
    c = circle1024
    n = 1024
    p, q = exponent_constant(4.0, n), exponent_constant(2.0, n)
    sizes = (16, 32, 64, 128, 256)
    specs = [f"monomial:{k}" for k in range(-3, 4)]
    specs += ["cos", "one-plus-cos2", "singular:-0.25"]
    ok = True
    details = []
    for spec in specs:
        a = symbol_from_preset(spec, degree=270)
        v = dichotomy_probe(a, p, q, sizes, aspect=8)
        one_side = min(v.sigma_min_T) >= 1e-6 or min(v.sigma_min_companion) >= 1e-6
        ok &= one_side and not v.fault
        if spec.startswith("monomial:"):
            k = int(spec.split(":")[1])
            ok &= v.kernel_dim_T == tuple([max(0, -k)] * len(sizes))
            ok &= v.kernel_dim_companion == tuple([max(0, k)] * len(sizes))
        details.append(f"{spec}={v.verdict}")
    elapsed = crit.finish(ok, "; ".join(details))
    assert elapsed < 300.0


def test_criterion_10_block_identities(circle4096, block_residuals):
    crit = _Criterion(10, "companion block identities at matrix level")
    worst = 0.0
    for spec in ("one", "cos", "one-plus-cos2", "trig-random:8"):
        a = symbol_from_preset(spec, seed=1010)
        worst = max(worst, *block_residuals(circle4096, a, 64).values())
    crit.finish(worst < 1e-10, f"worst residual {worst:.2e} over trig symbols, N = 64")
