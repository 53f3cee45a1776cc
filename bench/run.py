"""siolab benchmark: CLI wall time, accuracy, set-up time and memory.

Run from the repository root:

    python3 bench/run.py --workload sio-ellipse --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One closed-loop client in this process calls ``siolab.cli.main`` in-process,
starting each invocation only after the previous one returned, for
``--seconds`` seconds after an untimed warm-up pass. Every report is checked
against an oracle (``oracles.py``) and against the bytes of the warm-up
report for the same command. ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of ``spans.py`` instead. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; full records go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import oracles

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# One BLAS/OpenMP thread: the dense quadrature is no faster on two (measured
# on a 2-vCPU machine), and a single thread is steadier on a shared machine.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROCESSES = 3
SETUP_TIMEOUT_S = 150

END_TO_END = (
    ("pass_s.p50", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("accuracy_digits", "digits", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass(frozen=True)
class Invocation:
    label: str  # prefix of the per-command metric, e.g. sio_check -> sio_check_s.p50
    argv: tuple[str, ...]
    oracle: Callable[[dict], tuple[dict, dict]]


@dataclass(frozen=True)
class Workload:
    why: str
    invocations: tuple[Invocation, ...]


WORKLOADS = {
    "sio-ellipse": Workload(
        "dense quadrature S dominates (24 single-column apply_S calls plus 32-column "
        "batches); where batching and the kernel split must show",
        (Invocation("sio_check", ("sio-check", "--curve", "ellipse:2,1", "--n", "2048"),
                    oracles.sio_ellipse),),
    ),
    "sio-circle": Workload(
        "same sio-check path with the exact FFT S; time goes to off-curve Cauchy sums "
        "and the log-Hoelder scan, so a quadrature change must show no change",
        (Invocation("sio_check", ("sio-check", "--curve", "circle", "--n", "4096"),
                    oracles.sio_circle),),
    ),
    "lab-mix": Workload(
        "layers the sio workloads barely touch: variable-exponent Luxemburg bisection, "
        "finite-section SVDs and the Carleson scan; S is never applied",
        (
            Invocation("norm", ("norm", "--curve", "circle", "--n", "4096", "--exponent",
                                "2+abs(sin)", "--function", "abs-cos"), oracles.norm),
            Invocation("multiplier", ("multiplier", "--p", "2+abs(sin)", "--q", "2",
                                      "--symbol", "one-plus-cos2", "--trials", "24"),
                       oracles.multiplier),
            Invocation("dichotomy", ("dichotomy", "--symbol", "monomial:1", "--p", "4",
                                     "--q", "2", "--sizes", "16,32,64,128,256,512",
                                     "--aspect", "8"), oracles.dichotomy_shift),
            Invocation("carleson", ("carleson", "--curve", "circle", "--n", "4096"),
                       oracles.carleson_circle),
        ),
    ),
}


def import_cli():
    """Import siolab.cli from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "siolab"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"bench: no siolab sources at {package}")
    sys.path.insert(0, str(package.parent))
    import siolab.cli

    if Path(siolab.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported siolab from {siolab.cli.__file__}, not {package}")
    return siolab.cli


def invoke(cli, inv: Invocation, seed: int, out_dir: Path):
    """One CLI invocation. Returns (seconds, report bytes or None, problem or None)."""
    report = out_dir / "report.json"
    report.unlink(missing_ok=True)
    argv = [*inv.argv, "--seed", str(seed), "--out", str(out_dir)]
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # an invocation that raises has failed
        return time.perf_counter() - start, None, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, None, f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    try:
        return elapsed, report.read_bytes(), None
    except OSError as exc:
        return elapsed, None, f"no report: {exc}"


class Run:
    """Invocation tally of one workload run: attempts, failures, worst residual."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.worst_residual = 0.0
        self.reference: dict[str, bytes] = {}

    def judge(self, inv: Invocation, data: bytes | None, problem: str | None) -> None:
        self.attempted += 1
        if problem is None and inv.label in self.reference:
            if data != self.reference[inv.label]:
                problem = "report bytes differ from the warm-up report"
        elif problem is None:
            problem, worst = oracles.check(inv.oracle, data)
            if problem is None:
                self.reference[inv.label] = data
                self.worst_residual = max(self.worst_residual, worst)
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{inv.label}: {problem}")

    def one_pass(self, cli) -> dict[str, float]:
        """Run the workload's invocations once; returns seconds per command."""
        times = {}
        for inv in self.workload.invocations:
            elapsed, data, problem = invoke(cli, inv, self.seed, self.out_dir / inv.label)
            self.judge(inv, data, problem)
            times[inv.label] = elapsed
        return times


def timed_passes(run: Run, cli, seconds: float, between=None) -> list[dict[str, float]]:
    """Closed loop: passes back to back until ``seconds`` have elapsed (at least one)."""
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        samples.append(run.one_pass(cli))
        if between is not None:
            between()
        if time.perf_counter() >= deadline:
            return samples


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux VmHWM).

    ru_maxrss would carry over the resident size of the parent that spawned
    this process, which is larger than a lab-mix process on its own.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def setup_probe(name: str, seed: int, out_dir: Path) -> dict:
    """Child mode: import siolab and finish one untimed pass in a fresh process."""
    start = time.perf_counter()
    cli = import_cli()
    run = Run(WORKLOADS[name], seed, out_dir)
    run.one_pass(cli)
    setup_s = time.perf_counter() - start
    return {"setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
            "worst_residual": run.worst_residual}


def measure_setup(name: str, seed: int, run: Run) -> list[dict]:
    """setup_s and peak_rss_mb from SETUP_PROCESSES fresh processes, one at a time."""
    probes = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_PROCESSES):
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S, check=True)
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            n = len(run.workload.invocations)
            run.attempted += n
            run.failed += n
            run.problems.append(f"setup process failed: {exc!r} {getattr(exc, 'stderr', '')}")
            continue
        run.attempted += probe["attempted"]
        run.failed += probe["failed"]
        run.problems += probe["problems"]
        if probe["failed"] == 0:
            run.worst_residual = max(run.worst_residual, probe["worst_residual"])
        probes.append(probe)
    if not probes:
        raise SystemExit(f"bench: every set-up process failed: {run.problems}")
    return probes


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = ROOT / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(name: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "siolab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": _git_sha(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpu_count": os.cpu_count(), "threads": THREADS}


@dataclass
class Measurement:
    run: Run
    metrics: dict[str, float]
    units: dict[str, str]
    lines: list[tuple]  # (name, value, unit, note) for the human-readable report
    samples: dict  # raw per-pass and per-process samples for the record file
    spans: list | None = None


def measure(name: str, seed: int, seconds: float, out_dir: Path) -> Measurement:
    """End-to-end metrics, tracing off."""
    cli = import_cli()  # compiles the sources once before the set-up processes start
    run = Run(WORKLOADS[name], seed, out_dir)
    probes = measure_setup(name, seed, run)
    run.one_pass(cli)  # warm-up, untimed; its reports become the byte references
    samples = timed_passes(run, cli, seconds)
    passes = [sum(s.values()) for s in samples]
    metrics = {
        "pass_s.p50": median(passes),
        "setup_s": median(p["setup_s"] for p in probes),
        "accuracy_digits": oracles.digits(run.worst_residual),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in probes),
    }
    notes = {"pass_s.p50": f"n={len(passes)} passes",
             "setup_s": f"n={len(probes)} fresh processes",
             "peak_rss_mb": f"n={len(probes)} fresh processes",
             "accuracy_digits": f"worst residual {run.worst_residual:.3g}"}
    lines = [(metric, metrics[metric], unit, notes[metric]) for metric, unit, _ in END_TO_END]
    lines += [(f"{inv.label}_s.p50", median(s[inv.label] for s in samples), "s",
               f"n={len(samples)}") for inv in run.workload.invocations]
    units = {metric: unit for metric, unit, _ in END_TO_END}
    return Measurement(run, metrics, units, lines, {"passes": samples, "setup": probes})


def measure_traced(name: str, seed: int, seconds: float, out_dir: Path) -> Measurement:
    """Per-layer metrics from traced passes alternating with untraced ones."""
    import spans

    cli = import_cli()
    run = Run(WORKLOADS[name], seed, out_dir)
    run.one_pass(cli)  # warm-up; traced reports must match these bytes
    tracers, traced, layers = [], [], []

    def traced_pass():
        tracer = spans.Tracer()
        with spans.instrumented(tracer):
            wall = sum(run.one_pass(cli).values())
        tracers.append(tracer)
        traced.append(wall)
        layers.append(spans.layer_metrics(tracer, wall))

    untraced = [sum(s.values()) for s in timed_passes(run, cli, seconds, traced_pass)]
    metrics = {metric: median(m[metric] for m in layers)
               for metric, _, _ in spans.LAYER_METRICS if metric != "trace.overhead"}
    metrics["trace.overhead"] = median(traced) / median(untraced) - 1.0
    lines = [(metric, metrics[metric], unit, "") for metric, unit, _ in spans.LAYER_METRICS]
    lines.append(("pass_s.p50 untraced", median(untraced), "s",
                  f"traced {median(traced):.6g} s, n={len(traced)} each"))
    units = {metric: unit for metric, unit, _ in spans.LAYER_METRICS}
    return Measurement(run, metrics, units, lines,
                       {"untraced_passes": untraced, "traced_passes": traced},
                       [t.records() for t in tracers])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    work = OUT / f"work-{os.getpid()}"
    try:
        m = (measure_traced if trace else measure)(name, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run = m.run
    env = environment(name, seed, seconds, trace)
    ratio = run.failed / run.attempted
    print(f"{name}  seed={seed}  trace={trace}  git={env['git_sha'][:12]}  "
          f"src={env['src_sha256'][:12]}  python={env['python']}  numpy={env['numpy']}  "
          f"blas={env['blas']}  cpus={env['cpu_count']}  threads={THREADS}")
    for metric, value, unit, note in m.lines:
        print(f"  {metric:<30} {value:>14.6g} {unit:<12} {note}")
    print(f"  {'fail_ratio':<30} {ratio:>14.6g} {'ratio':<12} "
          f"{run.failed} failed of {run.attempted} invocations")
    for problem in run.problems[:10]:
        print(f"  problem: {problem}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": m.units[k]} for k, v in m.metrics.items()}}
    record_dir = OUT / "results"
    record_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    record = {"environment": env, "result": result, "fail_ratio": ratio,
              "problems": run.problems, "lines": m.lines, "samples": m.samples}
    (record_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if m.spans is not None:
        (record_dir / f"{stem}-spans.json").write_text(json.dumps(m.spans) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if args.setup_probe:
        work = OUT / f"work-{os.getpid()}"
        try:
            print(json.dumps(setup_probe(args.workload, args.seed, work)))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
