"""Command-line front door: config parsing, experiment runs, report bundles.

Subcommands: ``norm``, ``multiplier``, ``sio-check``, ``dichotomy``,
``carleson``. ``COMMAND_KEYS`` names the config keys each one reads; its
flags, its config-file check and its ``provenance.config`` come from it.
Each ``run_<command>(cfg, curve)`` computes from the curve that ``main``
builds and returns its results, tables, operations, extra files and fault;
``main`` adds ``curve.csv`` under ``export_curve``, the provenance and the
``ReportBundle``, and writes it.
Every run is reproducible at a fixed BLAS thread count: identical config and
seed produce byte-identical reports (sorted JSON keys, no wall-clock
provenance). Complex SVDs round differently under other thread counts:
``dichotomy --symbol trig-random:3`` reads sigma_min 9.780933433155141e-08 at
size 128 under one OpenBLAS thread and 9.780933433134781e-08 under two.
Exit codes: 0 success, 2 validation error, 3 numerical fault.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import functools
import hashlib
import io
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .cauchy import adjoint_residuals, apply_S, riesz_projections, s_path
from .corpus import random_trig_polynomial, rational_corpus
from .curves import carleson_constant, curve_from_name, curve_to_csv, read_preset
from .exponents import ExponentFunction, exponent_from_preset, log_holder_constant
from .spaces import (
    CERTIFICATE_TOL,
    luxemburg_norm,
    multiplier_norm_lower,
    norm_value,
    unit_ball_check,
)
from .toeplitz import Symbol, dichotomy_probe, symbol_from_preset

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_FAULT = 3

# The config keys each command reads, and the keys every command takes. A
# command's flags and the config-file keys it accepts are these, and its
# provenance.config holds exactly its row and the command.
COMMAND_KEYS = {
    "norm": ("curve", "n_nodes", "exponent", "function", "seed"),
    "multiplier": ("curve", "n_nodes", "p", "q", "symbol", "seed"),
    "sio-check": ("curve", "n_nodes", "exponent", "trials", "seed", "export_curve"),
    "dichotomy": ("curve", "n_nodes", "p", "q", "symbol", "sizes", "aspect", "seed"),
    "carleson": ("curve", "n_nodes", "export_curve"),
}
COMMON_KEYS = ("out", "format", "seed")
# multiplier reads no trials, yet takes and checks them, since the benchmark's
# lab-mix passes --trials 24 (ROADMAP item 1); they stay out of its provenance
UNREAD_KEYS = {"multiplier": ("trials",)}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str = "norm"
    curve: str = "circle"
    n_nodes: int = 4096
    exponent: str = "2"
    p: str = "4"
    q: str = "2"
    function: str = "one"
    symbol: str = "monomial:1"
    sizes: tuple[int, ...] = (16, 32, 64, 128, 256)
    aspect: int = 8
    trials: int = 24
    seed: int = 0
    out: str = "out"
    format: str = "json"
    export_curve: bool = False

    def canonical(self) -> dict:
        """The command and the keys it reads: where outputs go, how they are
        formatted and what other commands read change nothing it computes."""
        return {key: getattr(self, key)
                for key in sorted(("command", *COMMAND_KEYS[self.command]))}


@dataclass
class ReportBundle:
    results: dict
    tables: dict[str, list[dict]]
    provenance: dict
    extra_files: dict[str, str]

    def write(self, out_dir: str | Path, fmt: str) -> list[Path]:
        """Write report.json, then each table as csv under fmt csv, then the extra files."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        payload = {"results": self.results, "tables": self.tables, "provenance": self.provenance}
        files = {"report.json": json.dumps(_plain(payload), sort_keys=True, indent=2,
                                           allow_nan=False) + "\n"}
        if fmt == "csv":
            for name, rows in sorted(self.tables.items()):
                buf = io.StringIO()
                writer = csv_module.DictWriter(buf, fieldnames=sorted(rows[0]))
                writer.writeheader()
                writer.writerows(_plain(rows))
                files[f"{name}.csv"] = buf.getvalue()
        files.update(sorted(self.extra_files.items()))
        for name, text in files.items():
            (out / name).write_text(text)
        return [out / name for name in files]


def _plain(obj):
    """Convert numpy scalars and containers to JSON-stable Python types; a
    non-finite float becomes "inf", "-inf" or "nan", as a csv cell reads it."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _plain(float(np.real(obj))), "im": _plain(float(np.imag(obj)))}
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else str(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _provenance(cfg: ExperimentConfig, operations: list[str]) -> dict:
    canonical = json.dumps(cfg.canonical(), sort_keys=True)
    return {
        "config": cfg.canonical(),
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "siolab_version": __version__,
        "numpy_version": np.__version__,
        "operations": operations,
    }


def _read_csv(path: str, n_rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Column 1 and the complex values re[, im] of the rows of a csv file.

    A file with no rows or fewer than two columns is refused. When ``n_rows``
    is given (a per-node file), so is one of other than ``n_rows`` rows, and
    one whose column 1 does not read j = 0..n_rows-1 in order, naming the
    first row that breaks it.
    """
    with warnings.catch_warnings():  # numpy warns of an empty file, refused below
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    what = "a csv" if n_rows is None else "a per-node csv"
    if rows.shape[0] == 0 or rows.shape[1] < 2:
        raise ValueError(f"{path}: {what} needs rows of at least two columns")
    if n_rows is not None:
        if rows.shape[0] != n_rows:
            raise ValueError(f"{path}: {what} needs one row per curve node, {n_rows} rows; "
                             f"got {rows.shape[0]}")
        bad = np.flatnonzero(rows[:, 0] != np.arange(n_rows))
        if bad.size:
            raise ValueError(f"{path}: {what} needs j = 0..{n_rows - 1} in order in column 1; "
                             f"row {bad[0] + 1} reads j = {rows[bad[0], 0]:g}")
    values = np.zeros(rows.shape[0], dtype=complex)
    values.real = rows[:, 1]
    if rows.shape[1] > 2:  # set apart: 1j * inf would read as nan + inf j
        values.imag = rows[:, 2]
    return rows[:, 0], values


def _node_csv(kind: str, spec: str, curve) -> np.ndarray:
    """The values of a ``csv:path`` exponent or function, one row per node."""
    try:
        return _read_csv(spec[4:], curve.n_nodes)[1]
    except OSError as exc:  # numpy's message names the path alone, empty in 'csv:'
        raise ValueError(f"{kind} preset {spec!r}: {exc}") from exc


def _exponent(spec: str, curve):
    if spec.startswith("csv:"):
        return ExponentFunction(_node_csv("exponent", spec, curve).real)
    return exponent_from_preset(spec, curve)


# Builders of (curve, node angles, seed, *arguments) for the presets but csv.
FUNCTION_PRESETS = {
    "one": (lambda curve, theta, seed: np.ones(curve.n_nodes, dtype=complex), ""),
    "const": (lambda curve, theta, seed, re, im=0.0:
              np.full(curve.n_nodes, re + 1j * im, dtype=complex), "float[,float]"),
    "abs-cos": (lambda curve, theta, seed: np.abs(np.cos(theta)).astype(complex), ""),
    "mode": (lambda curve, theta, seed, k: np.exp(1j * k * theta), "int"),
    "trig-random": (lambda curve, theta, seed, deg:
                    random_trig_polynomial(curve, np.random.default_rng(seed), deg), "int"),
    "indicator": (lambda curve, theta, seed, t0, t1:
                  ((theta >= t0) & (theta < t1)).astype(complex), "float,float"),
    "pole": (lambda curve, theta, seed, re, im: 1 / (curve.nodes - (re + 1j * im)), "float,float"),
}


def _function(spec: str, curve, seed: int) -> np.ndarray:
    if spec.startswith("csv:"):
        values = _node_csv("function", spec, curve)
    else:  # a pole on a node or a nan pole is refused below
        with np.errstate(divide="ignore", invalid="ignore"):
            values = read_preset("function", FUNCTION_PRESETS, spec, curve,
                                 np.angle(curve.nodes), seed)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"function {spec!r} is not finite at every curve node")
    return values


def _symbol(spec: str, degree: int, seed: int) -> Symbol:
    if spec.endswith(".csv"):
        k, values = _read_csv(spec)
        if not np.all(np.isfinite(k) & (k == np.round(k))):
            raise ValueError(f"{spec}: the mode numbers k in column 1 must be integers")
        ks = k.astype(int)
        if np.unique(ks).size != ks.size:
            raise ValueError(f"{spec}: a mode number k is given more than once")
        K = int(np.abs(ks).max())
        coeff = np.zeros(2 * K + 1, dtype=complex)
        coeff[ks + K] = values
        return Symbol(coeff, Path(spec).name)
    return symbol_from_preset(spec, degree, seed)


def run_norm(cfg: ExperimentConfig, curve) -> tuple:
    p = _exponent(cfg.exponent, curve)
    f = _function(cfg.function, curve, cfg.seed)
    res = luxemburg_norm(curve, f, p)
    if res.value == np.inf:  # f is finite at every node, so its norm overflowed
        raise ValueError(f"the Luxemburg norm of {cfg.function!r} exceeds the float range "
                         f"(largest float {np.finfo(float).max:.4g})")
    ball = unit_ball_check(curve, f, p)
    results = {
        "value": res.value,
        "modular_at_value": res.modular_at_value,
        "iterations": res.bisection_iterations,
        "unit_ball": {
            "modular_le_one": ball.modular_le_one,
            "norm_le_one": ball.norm_le_one,
            "consistent": ball.consistent,
        },
    }
    table = [{"item": cfg.function, "op": "luxemburg_norm", "value": res.value,
              "modular_at_value": res.modular_at_value,
              "iterations": res.bisection_iterations}]
    fault = None if ball.consistent else "unit-ball equivalence violated numerically"
    if not res.certified:
        fault = (f"Luxemburg norm not certified: modular {res.modular_at_value:.12g} "
                 f"at value {res.value:.6g} is not within {CERTIFICATE_TOL:g} of 1")
    return results, {"norms": table}, ["luxemburg_norm", "unit_ball_check"], {}, fault


def run_multiplier(cfg: ExperimentConfig, curve) -> tuple:
    p = _exponent(cfg.p, curve)
    q = _exponent(cfg.q, curve)
    a = _symbol(cfg.symbol, 0, cfg.seed).values(curve)
    bounds = multiplier_norm_lower(curve, a, p, q)
    theorem, lower, holder = bounds.theorem_value, bounds.lower_bound, bounds.holder_constant
    if not np.isfinite(theorem):
        raise ValueError(f"symbol {cfg.symbol!r} has no finite L^r norm (theorem value {theorem})")
    results = {
        "theorem_value": theorem,
        "lower_bound": lower,
        "upper_bound": bounds.upper_bound,
        "lower_over_theorem": lower / theorem if theorem > 0 else 0.0,
        "equivalence_allowance": holder,
    }
    fault = None
    if lower > theorem * holder:
        fault = "lower bound exceeds the theorem value times the Hoelder constant K"
    elif bounds.upper_bound < lower * (1.0 - 2.0 * CERTIFICATE_TOL):
        # the lower bound rests on two norms, each certified to CERTIFICATE_TOL
        fault = "upper bound of the multiplier norm lies below its lower bound"
    return (results, {"multiplier": [{"op": "multiplier_norm", **results}]},
            ["multiplier_norm_via_theorem", "multiplier_norm_lower"], {}, fault)


# Largest projection, adjoint or rational-oracle residual each realization of S
# may report. Each sits at least 10x above what that path measures on the 2:1
# ellipse and the circle at n = 2048 (circle 7e-16; split 2.6e-15, and 7.5e-15
# against the rational corpus's exact P f; dense 5e-8); the first-order square
# gives 1e-3 and more on the dense path.
S_RESIDUAL_THRESHOLDS = {"circle": 1e-12, "split": 1e-10, "dense": 1e-5}


def _residual_fault(path: str, residuals: dict[str, dict[str, float]]) -> str | None:
    """Name the worst residual above the path's threshold, if any; NaN is worst."""
    threshold = S_RESIDUAL_THRESHOLDS[path]
    name, value = max(((f"{group} {key}", v) for group, rs in residuals.items()
                       for key, v in rs.items()),
                      key=lambda item: np.nan_to_num(item[1], nan=np.inf))
    if value <= threshold:
        return None
    return f"{name} residual {value:.3g} exceeds the {path} threshold {threshold:g}"


def _plemelj_rows(curve, rng: np.random.Generator) -> list[dict]:
    """The corpus's residuals against its Plemelj limits P f and Q f, known exactly."""
    names, functions, exact = zip(*rational_corpus(curve, rng, count=4))
    F, exact_p = np.stack(functions), np.stack(exact)
    pf, qf = riesz_projections(curve, F)
    return [{"item": name, "op": "riesz_projections",
             "residual_plus": plus, "residual_minus": minus}
            for name, plus, minus in zip(names, np.abs(pf - exact_p).max(axis=1),
                                         np.abs(qf - (F - exact_p)).max(axis=1))]


def _norm_ratio_rows(curve, rng: np.random.Generator, p, trials: int) -> list[dict]:
    """The trial polynomials' norms, then S in place over the same stack, then theirs."""
    polys = random_trig_polynomial(curve, rng, degree=12, count=trials)
    norms_f = norm_value(curve, polys, p).tolist()
    apply_S(curve, polys, out=polys)
    norms_sf = norm_value(curve, polys, p).tolist()
    return [{"item": f"trig-{i}", "op": "norm_ratio", "ratio": ns / nf if nf > 0 else 0.0}
            for i, (nf, ns) in enumerate(zip(norms_f, norms_sf))]


def run_sio_check(cfg: ExperimentConfig, curve) -> tuple:
    p = _exponent(cfg.exponent, curve)

    # the certificate is the largest stage: it runs before numpy.random is
    # loaded, and each later stage frees its arrays before the next one
    adj = adjoint_residuals(curve, 32)
    proj = {"P2_minus_P": adj.p2_minus_p, "PQ": adj.pq,
            "P_plus_Q_minus_I": adj.p_plus_q_minus_i}
    rng = np.random.default_rng(cfg.seed)
    plemelj_rows = _plemelj_rows(curve, rng)
    ratio_rows = _norm_ratio_rows(curve, rng, p, cfg.trials)
    lh = log_holder_constant(p, curve)

    results = {
        "projection_residuals": proj,
        "adjoint_residuals": {"S": adj.s_residual, "P": adj.p_residual, "Q": adj.q_residual},
        "plemelj_max_plus": max(r["residual_plus"] for r in plemelj_rows),
        "plemelj_max_minus": max(r["residual_minus"] for r in plemelj_rows),
        "norm_ratio_max": max(r["ratio"] for r in ratio_rows),
        "log_holder": {
            "holds": lh.holds,
            "constant_estimate": lh.constant_estimate,
            "bounds": [lh.p_minus, lh.p_plus],
        },
    }
    extra = {}
    if cfg.format == "csv":
        buf = io.StringIO()
        for row in adj.s_matrix:
            buf.write(",".join(repr(complex(z)) for z in row) + "\n")
        extra["s_matrix.csv"] = buf.getvalue()
    fault = _residual_fault(s_path(curve), {
        "projection": proj, "adjoint": results["adjoint_residuals"],
        "rational": {"P": results["plemelj_max_plus"], "Q": results["plemelj_max_minus"]}})
    return (results, {"plemelj": plemelj_rows, "norm_ratios": ratio_rows},
            ["adjoint_residuals", "riesz_projections", "apply_S", "norm_value",
             "log_holder_constant"], extra, fault)


def run_dichotomy(cfg: ExperimentConfig, curve) -> tuple:
    if not curve.is_unit_circle:
        raise ValueError(f"finite sections exist only on the unit circle, not on {cfg.curve!r}")
    p = _exponent(cfg.p, curve)
    q = _exponent(cfg.q, curve)
    a = _symbol(cfg.symbol, max(cfg.sizes) + cfg.aspect, cfg.seed)
    verdict = dichotomy_probe(a, p, q, cfg.sizes, aspect=cfg.aspect)
    results = asdict(verdict)
    rows = [
        {"op": "dichotomy_probe", "size": n, "sigma_min_T": st, "sigma_min_companion": sc,
         "kernel_dim_T": kt, "kernel_dim_companion": kc}
        for n, st, sc, kt, kc in zip(verdict.sizes, verdict.sigma_min_T,
                                     verdict.sigma_min_companion, verdict.kernel_dim_T,
                                     verdict.kernel_dim_companion)
    ]
    fault = "both operators show persistent nontrivial kernels" if verdict.fault else None
    return results, {"sections": rows}, ["dichotomy_probe"], {}, fault


def run_carleson(cfg: ExperimentConfig, curve) -> tuple:
    results = asdict(carleson_constant(curve))
    rows = [{"op": "carleson_constant", "estimate": results["constant_estimate"]}]
    return results, {"carleson": rows}, ["carleson_constant"], {}, None


_RUNNERS = {
    "norm": run_norm,
    "multiplier": run_multiplier,
    "sio-check": run_sio_check,
    "dichotomy": run_dichotomy,
    "carleson": run_carleson,
}


def _keys(command: str) -> dict:
    """The keys a command takes, in order: the common ones, its row, its exception."""
    return dict.fromkeys((*COMMON_KEYS, *COMMAND_KEYS[command], *UNREAD_KEYS.get(command, ())))


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="siolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMAND_KEYS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="JSON config file")
        for key in _keys(command):
            flag = "--n" if key == "n_nodes" else "--" + key.replace("_", "-")
            if key == "export_curve":
                sp.add_argument(flag, dest=key, action="store_true", default=None)
            elif key == "sizes":  # comma-separated on the command line only
                sp.add_argument(flag, type=_sizes)
            else:
                kind = type(getattr(ExperimentConfig, key))
                sp.add_argument(flag, dest=key, type=int if kind is int else str)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, the optional config file, and explicit CLI flags."""
    base: dict = {}
    if args.config:
        base = json.loads(Path(args.config).read_text())
        if not isinstance(base, dict):
            raise ValueError("config file must hold a JSON object")
        unread = base.keys() - _keys(args.command)
        if unread:
            raise ValueError(f"config keys {sorted(unread)} are not read by {args.command}")
    overrides = {key: value for key, value in vars(args).items()
                 if key != "config" and value is not None}
    merged = {**base, **overrides}
    if isinstance(merged.get("sizes"), list):
        merged["sizes"] = tuple(merged["sizes"])
    valid = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    for key, value in merged.items():
        # exact types: a bool is not an int, and "4096" is not 4096
        ok = type(value) is valid[key]
        if key == "sizes":
            ok = ok and all(type(n) is int for n in value)
        if not ok:
            kind = "list of ints" if key == "sizes" else valid[key].__name__
            raise ValueError(f"config key {key!r} takes a {kind}, got {value!r}")
    if merged.get("format", "json") not in ("json", "csv"):
        raise ValueError(f"config key 'format' takes json or csv, got {merged['format']!r}")
    cfg = replace(ExperimentConfig(), **merged)
    for key, least in (("trials", 1), ("seed", 0)):
        if getattr(cfg, key) < least:
            raise ValueError(f"config key {key!r} must be at least {least}, "
                             f"got {getattr(cfg, key)}")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        curve = curve_from_name(cfg.curve, cfg.n_nodes)
        results, tables, operations, extra, fault = _RUNNERS[cfg.command](cfg, curve)
        if cfg.export_curve:
            extra["curve.csv"] = curve_to_csv(curve)
        bundle = ReportBundle(results, tables, _provenance(cfg, operations), extra)
        for path in bundle.write(cfg.out, cfg.format):
            print(path)
        if fault:
            print(f"numerical fault: {fault}", file=sys.stderr)
            return EXIT_FAULT
        return EXIT_OK
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
