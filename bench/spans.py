"""Per-layer spans for siolab, recorded from outside the package.

``instrumented(tracer)`` rebinds, in every loaded siolab module, the public
functions of the seven layer modules (and the few private names listed in
EXTRA_NAMES) to wrappers that open a span around each call. The original
bindings come back when the context exits. Modules look their globals up at
call time, so nested calls are caught as well: ``spaces.norm_value`` reaches
``spaces.luxemburg_norm`` through the wrapper, and ``cauchy.apply_S``
reaches ``cauchy.apply_S_batch``. Nothing under ``src/`` is touched.

Spans live in memory as (name, start, end, parent, counts). A span's parent
is the span that was open when it began, and its self time is its duration
minus the time its child spans cover. ``cauchy.kernel_bytes``,
``cauchy.offcurve_pairs``, ``exponents.log_holder_pairs`` and
``toeplitz.svd_flops`` are computed from array shapes, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
import types
from dataclasses import dataclass, field

LAYERS = ("cli", "curves", "exponents", "spaces", "cauchy", "toeplitz", "corpus")

# Names traced besides each layer's ``__all__``. ``_quadrature_S`` builds the
# dense kernel; ``plemelj_residual`` calls it directly, bypassing apply_S.
EXTRA_NAMES = {"cli": ("main", "config_from_args"), "cauchy": ("_quadrature_S",)}
EXTRA_METHODS = {"cli": (("ReportBundle", "write"),)}

# Spans that enclose a whole invocation; every other span is a named layer span.
ENVELOPES = frozenset({"cli.main"})

S_SPANS = frozenset({"cauchy.apply_S", "cauchy.apply_S_batch"})
CURVE_BUILD_SPANS = frozenset({
    "curves.curve_from_name", "curves.make_unit_circle", "curves.make_ellipse",
    "curves.make_square", "curves.make_perturbed_circle", "curves.make_parametric_curve",
})

# Inclusive time of the outermost calls into each group of spans.
TIME_METRICS = {
    "cauchy.apply_S_s": S_SPANS,
    "cauchy.offcurve_s": frozenset({"cauchy.cauchy_offcurve"}),
    "cauchy.plemelj_s": frozenset({"cauchy.plemelj_residual"}),
    "cauchy.adjoint_s": frozenset({"cauchy.adjoint_residuals"}),
    "exponents.log_holder_s": frozenset({"exponents.log_holder_constant"}),
    "corpus.trig_s": frozenset({"corpus.random_trig_polynomial"}),
    "spaces.luxemburg_s": frozenset({"spaces.luxemburg_norm"}),
    "spaces.multiplier_lower_s": frozenset({"spaces.multiplier_norm_lower"}),
    "toeplitz.svd_s": frozenset({"toeplitz.numerical_kernel"}),
    "toeplitz.section_s": frozenset({"toeplitz.finite_section"}),
    "curves.build_s": CURVE_BUILD_SPANS,
    "curves.carleson_s": frozenset({"curves.carleson_constant"}),
    "cli.report_write_s": frozenset({"cli.ReportBundle.write"}),
}

# (name, unit, better) for every per-layer metric, in report order. Values are
# per pass of the workload (the median over traced passes).
LAYER_METRICS = (
    *((name, "s", "lower") for name in TIME_METRICS),
    ("cauchy.apply_S_calls", "count", "lower"),
    ("cauchy.apply_S_columns", "count", "lower"),
    ("cauchy.columns_per_call", "columns/call", "higher"),
    ("cauchy.kernel_builds", "count", "lower"),
    ("cauchy.kernel_bytes", "bytes", "lower"),
    ("cauchy.offcurve_pairs", "count", "lower"),
    ("exponents.log_holder_pairs", "count", "lower"),
    ("corpus.calls", "count", "lower"),
    ("spaces.luxemburg_calls", "count", "lower"),
    ("spaces.bisections", "count", "lower"),
    ("spaces.certified_ratio", "ratio", "higher"),
    ("toeplitz.svd_calls", "count", "lower"),
    ("toeplitz.svd_flops", "flop", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def finish(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._open.pop()

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "self_s": own, "counts": s.counts}
            for s, own in zip(self.spans, self.self_times())
        ]


# --- counts taken from a call's arguments and result --------------------------

def _columns(f) -> int:
    shape = getattr(getattr(f, "values", f), "shape", ())
    return shape[1] if len(shape) > 1 else 1


def svd_flops(m: int, n: int) -> int:
    """Computed flops of singular values only of a complex m x n matrix.

    Golub and Van Loan's count for Householder bidiagonalisation,
    4 m n^2 - 4 n^3 / 3 real flops with m >= n, times 4 for complex
    arithmetic; the O(n^2) bidiagonal iteration is left out.
    """
    m, n = max(m, n), min(m, n)
    return round(4 * (4 * m * n * n - 4 * n ** 3 / 3))


def _quadrature_counts(a, result):
    n = a["curve"].n_nodes
    rows = n if a.get("rows") is None else len(a["rows"])
    return {"kernel_bytes": rows * n * 16}


def _log_holder_counts(a, result):
    if not math.isfinite(result.p_plus):
        return {"log_holder_pairs": 0}
    n = a["curve"].n_nodes
    sampled = -(-n // max(1, n // a["max_nodes"]))
    return {"log_holder_pairs": sampled * sampled}


def _luxemburg_counts(a, result):
    eligible = 0.0 < result.value < math.inf
    return {"bisections": result.bisection_iterations, "eligible": int(eligible),
            "certified": int(eligible and abs(result.modular_at_value - 1.0) <= 1e-10)}


def _svd_counts(a, result):
    shape = getattr(a["section"], "matrix", a["section"]).shape
    return {"svd_flops": svd_flops(*shape)}


PROBES = {
    "cauchy.apply_S": lambda a, r: {"columns": _columns(a["f"])},
    "cauchy.apply_S_batch": lambda a, r: {"columns": _columns(a["F"])},
    "cauchy._quadrature_S": _quadrature_counts,
    "cauchy.cauchy_offcurve": lambda a, r: {
        "offcurve_pairs": getattr(a["z"], "size", 1) * a["curve"].n_nodes},
    "exponents.log_holder_constant": _log_holder_counts,
    "spaces.luxemburg_norm": _luxemburg_counts,
    "toeplitz.numerical_kernel": _svd_counts,
}


def _wrap(tracer: Tracer, name: str, fn):
    probe = PROBES.get(name)
    signature = inspect.signature(fn) if probe else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(index)
        if probe:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.spans[index].counts = probe(bound.arguments, result)
        return result

    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route calls into the layer modules through span-recording wrappers."""
    wrappers = {}
    restore = []
    for layer in LAYERS:
        module = sys.modules.get(f"siolab.{layer}")
        if module is None:  # a layer the CLI no longer imports has no calls to trace
            continue
        for attr in (*getattr(module, "__all__", ()), *EXTRA_NAMES.get(layer, ())):
            fn = getattr(module, attr, None)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                wrappers[fn] = _wrap(tracer, f"{layer}.{attr}", fn)
        for cls_name, method in EXTRA_METHODS.get(layer, ()):
            cls = getattr(module, cls_name)
            restore.append((cls, method, cls.__dict__[method]))
            setattr(cls, method, _wrap(tracer, f"{layer}.{cls_name}.{method}",
                                       cls.__dict__[method]))
    siolab_modules = [m for key, m in sys.modules.items()
                      if key == "siolab" or key.startswith("siolab.")]
    for module in siolab_modules:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                restore.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


# --- per-pass layer metrics ----------------------------------------------------

def _outermost(spans: list[Span], names) -> list[Span]:
    """Spans in ``names`` with no ancestor in ``names`` (no double counting)."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            out.append(s)
    return out


def _count(spans: list[Span], key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans)


def _calls(spans: list[Span], name: str) -> int:
    return sum(s.name == name for s in spans)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose invocations took ``wall_s``."""
    spans = tracer.spans
    m = {name: sum(s.duration for s in _outermost(spans, names))
         for name, names in TIME_METRICS.items()}
    s_calls = _outermost(spans, S_SPANS)
    columns = _count(s_calls, "columns")
    corpus = frozenset(s.name for s in spans if s.name.startswith("corpus."))
    eligible = _count(spans, "eligible")
    m.update({
        "cauchy.apply_S_calls": len(s_calls),
        "cauchy.apply_S_columns": columns,
        "cauchy.columns_per_call": columns / len(s_calls) if s_calls else 0.0,
        "cauchy.kernel_builds": _calls(spans, "cauchy._quadrature_S"),
        "cauchy.kernel_bytes": _count(spans, "kernel_bytes"),
        "cauchy.offcurve_pairs": _count(spans, "offcurve_pairs"),
        "exponents.log_holder_pairs": _count(spans, "log_holder_pairs"),
        "corpus.calls": len(_outermost(spans, corpus)),
        "spaces.luxemburg_calls": _calls(spans, "spaces.luxemburg_norm"),
        "spaces.bisections": _count(spans, "bisections"),
        "spaces.certified_ratio": _count(spans, "certified") / eligible if eligible else 0.0,
        "toeplitz.svd_calls": _calls(spans, "toeplitz.numerical_kernel"),
        "toeplitz.svd_flops": _count(spans, "svd_flops"),
    })
    own = tracer.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own)
                                   if s.name.split(".", 1)[0] == layer)
    covered = sum(s.duration for s in spans if s.name not in ENVELOPES
                  and (s.parent is None or spans[s.parent].name in ENVELOPES))
    m["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return m
