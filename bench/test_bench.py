"""Tests of the benchmark's own code: python -m pytest bench -q"""

import json
from pathlib import Path

import oracles
import run
import spans

GOOD_NORM = {"results": {"modular_at_value": 1.0 - 1e-13, "value": 1.5,
                         "unit_ball": {"consistent": True}}}


class FakeCli:
    """Stands in for siolab.cli: writes the queued report bytes and exits 0."""

    def __init__(self, *reports: bytes):
        self.reports = list(reports)

    def main(self, argv):
        out = Path(argv[argv.index("--out") + 1])
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_bytes(self.reports.pop(0))
        return 0


def _norm_run(tmp_path):
    workload = run.Workload("test", (run.Invocation("norm", ("norm",), oracles.norm),))
    return run.Run(workload, seed=0, out_dir=tmp_path)


def test_corrupted_report_counts_toward_fail_ratio(tmp_path):
    r = _norm_run(tmp_path)
    r.one_pass(FakeCli(b'{"results": {"modular_at_val'))
    assert (r.attempted, r.failed) == (1, 1)
    assert "malformed report" in r.problems[0]


def test_report_failing_its_oracle_counts_as_failed(tmp_path):
    bad = {"results": {**GOOD_NORM["results"], "modular_at_value": 0.5}}
    r = _norm_run(tmp_path)
    r.one_pass(FakeCli(json.dumps(bad).encode()))
    assert (r.attempted, r.failed) == (1, 1)


def test_report_differing_from_warm_up_bytes_counts_as_failed(tmp_path):
    first = json.dumps(GOOD_NORM).encode()
    r = _norm_run(tmp_path)
    r.one_pass(FakeCli(first))
    r.one_pass(FakeCli(first + b" "))
    r.one_pass(FakeCli(first))
    assert (r.attempted, r.failed) == (3, 1)
    assert oracles.digits(r.worst_residual) > 12


def test_nonzero_exit_counts_as_failed(tmp_path):
    class Failing:
        @staticmethod
        def main(argv):
            return 2

    r = _norm_run(tmp_path)
    r.one_pass(Failing())
    assert (r.attempted, r.failed) == (1, 1)


def _ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_excludes_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [6, 9]
    t = spans.Tracer(clock=_ticking_clock([0, 1, 2, 3, 4, 6, 9, 10]))
    root = t.begin("cli.main")
    a = t.begin("cauchy.apply_S")
    b = t.begin("cauchy.apply_S_batch")
    t.finish(b)
    t.finish(a)
    c = t.begin("spaces.luxemburg_norm")
    t.finish(c)
    t.finish(root)
    assert t.self_times() == [10 - 3 - 3, 3 - 1, 1, 3]
    m = spans.layer_metrics(t, wall_s=10.0)
    # the nested apply_S_batch is not counted a second time
    assert m["cauchy.apply_S_s"] == 3
    assert m["cauchy.apply_S_calls"] == 1
    assert m["cauchy.self_s"] == 3
    assert m["trace.coverage"] == 0.6


def test_svd_flops_is_symmetric_in_the_shape():
    assert spans.svd_flops(520, 512) == spans.svd_flops(512, 520)
    assert spans.svd_flops(3, 3) == 4 * (4 * 27 - 36)


def test_traced_invocation_keeps_report_bytes_and_restores_bindings(tmp_path):
    cli = run.import_cli()
    inv = run.Invocation("norm", ("norm", "--curve", "circle", "--n", "256", "--exponent",
                                  "2+abs(sin)", "--function", "abs-cos"), oracles.norm)
    originals = (cli.main, cli.luxemburg_norm, cli.ReportBundle.__dict__["write"])
    _, plain, problem = run.invoke(cli, inv, 0, tmp_path)
    assert problem is None
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert cli.main is not originals[0]
        _, traced, problem = run.invoke(cli, inv, 0, tmp_path)
    assert problem is None and traced == plain
    assert (cli.main, cli.luxemburg_norm, cli.ReportBundle.__dict__["write"]) == originals
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "spaces.luxemburg_norm", "cli.ReportBundle.write"} <= names
    m = spans.layer_metrics(tracer, sum(s.duration for s in tracer.spans
                                        if s.name == "cli.main"))
    assert m["spaces.luxemburg_calls"] >= 2 and m["spaces.bisections"] > 0
    assert m["spaces.certified_ratio"] == 1.0
    assert 0.5 < m["trace.coverage"] <= 1.0


def test_benchmark_json_lists_the_metrics_and_workloads_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.LAYER_METRICS)
