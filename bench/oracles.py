"""What each benchmarked CLI invocation's ``report.json`` must say.

An oracle takes the report's ``results`` block and returns
``(residuals, facts)``. ``residuals`` maps a name to ``(value, limit)``; each
value must be finite and at most its limit, and the largest one sets the
workload's ``accuracy_digits``. ``facts`` maps a name to a condition that
must hold. On the unit circle the limits come from exact identities, since S
is the unitary FFT multiplier there. On the ellipse they sit about ten times
above the values measured at n = 2048 (projection 5.2e-8, adjoint 7.5e-9,
Plemelj 1.06e-4 at worst over seeds 0-7), so a broken S fails and a more
accurate one passes.
"""

from __future__ import annotations

import json
import math

EPS = 2.0 ** -52


def _number(x) -> float:
    # a residual may also arrive as {"value": v, "threshold": t, "ok": b}
    return float(x["value"] if isinstance(x, dict) else x)


def _sio_residuals(r, projection: float, adjoint: float, plemelj: float) -> dict:
    proj, adj = r["projection_residuals"], r["adjoint_residuals"]
    out = {f"projection.{k}": (_number(proj[k]), projection)
           for k in ("P2_minus_P", "PQ", "P_plus_Q_minus_I")}
    out.update({f"adjoint.{k}": (_number(adj[k]), adjoint) for k in ("S", "P", "Q")})
    out["plemelj_plus"] = (_number(r["plemelj_max_plus"]), plemelj)
    out["plemelj_minus"] = (_number(r["plemelj_max_minus"]), plemelj)
    return out


def _log_holder_facts(r) -> dict:
    # the exponent is the constant 2: log-Hoelder with constant 0
    lh = r["log_holder"]
    return {"log_holder_holds": lh["holds"] is True,
            "log_holder_constant_zero": lh["constant_estimate"] == 0.0,
            "log_holder_bounds": lh["bounds"] == [2.0, 2.0]}


def sio_circle(r):
    residuals = _sio_residuals(r, projection=1e-12, adjoint=1e-12, plemelj=1e-4)
    # S is unitary on L^2 of the circle, so every norm ratio is 1
    residuals["norm_ratio_max_minus_1"] = (abs(_number(r["norm_ratio_max"]) - 1.0), 1e-12)
    return residuals, _log_holder_facts(r)


def sio_ellipse(r):
    residuals = _sio_residuals(r, projection=1e-6, adjoint=1e-7, plemelj=1e-3)
    ratio = _number(r["norm_ratio_max"])
    return residuals, {**_log_holder_facts(r), "norm_ratio_finite": 0.0 < ratio < math.inf}


def norm(r):
    return ({"modular_minus_1": (abs(r["modular_at_value"] - 1.0), 1e-10)},
            {"unit_ball_consistent": r["unit_ball"]["consistent"] is True,
             "value_finite": 0.0 < r["value"] < math.inf})


def multiplier(r):
    theorem, lower = r["theorem_value"], r["lower_bound"]
    return {}, {"theorem_finite": 0.0 < theorem < math.inf,
                "lower_within_allowance": 0.0 < lower <= theorem * r["equivalence_allowance"]}


def dichotomy_shift(r):
    # T(z) is the unilateral shift, an isometry: every sigma_min(T) is 1
    sigmas = r["sigma_min_T"]
    return ({"sigma_min_T_minus_1": (max(abs(s - 1.0) for s in sigmas), 1e-12)},
            {"verdict_T_injective": r["verdict"] == "T-injective",
             "all_sizes_probed": len(sigmas) == len(r["sizes"]) == 6})


def carleson_circle(r):
    # on the circle the sup of |portion| / eps is reached at eps = 2: 2 pi / 2
    return ({"pi_relative_error": (abs(r["constant_estimate"] - math.pi) / math.pi, 1e-12)}, {})


def check(oracle, data: bytes) -> tuple[str | None, float]:
    """Judge one report. Returns (problem or None, largest residual value)."""
    try:
        residuals, facts = oracle(json.loads(data)["results"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}", math.inf
    bad = [f"{name} = {value:.3g} exceeds {limit:g}"
           for name, (value, limit) in residuals.items() if not value <= limit]
    bad += [f"{name} fails" for name, ok in facts.items() if not ok]
    worst = max((value for value, _ in residuals.values()), default=0.0)
    return ("; ".join(bad) or None), worst


def digits(worst: float) -> float:
    """-log10 of the largest residual, capped at double precision."""
    return -math.log10(max(worst, EPS))
