import json
import tracemalloc
import warnings

import numpy as np
import pytest

import siolab.cauchy as cauchy
import siolab.cli as cli
import siolab.spaces as spaces
from siolab.cli import EXIT_FAULT, EXIT_OK, EXIT_VALIDATION, main
from siolab.curves import (
    carleson_constant,
    curve_from_name,
    default_epsilon_grid,
    refine_epsilon_grid,
)
from siolab.toeplitz import DichotomyVerdict


def run(args):
    return main(args)


def test_norm_subcommand(tmp_path):
    out = tmp_path / "norm"
    code = run(["norm", "--curve", "circle", "--n", "512", "--exponent", "2",
                "--function", "one", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["value"] == pytest.approx(np.sqrt(2 * np.pi), rel=1e-10)
    assert report["results"]["iterations"] == 0
    assert set(report) == {"results", "tables", "provenance"}
    assert report["provenance"]["config_hash"]


def test_norm_variable_exponent_bisection(tmp_path):
    out = tmp_path / "normv"
    code = run(["norm", "--curve", "circle", "--n", "512", "--exponent", "2+abs(sin)",
                "--function", "abs-cos", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["iterations"] > 0
    assert report["results"]["modular_at_value"] == pytest.approx(1.0, abs=1e-10)


def test_validation_errors_exit_2(tmp_path):
    assert run(["norm", "--curve", "circle", "--n", "512", "--exponent", "0.5",
                "--out", str(tmp_path / "a")]) == EXIT_VALIDATION
    assert run(["multiplier", "--p", "2", "--q", "4", "--n", "512",
                "--out", str(tmp_path / "b")]) == EXIT_VALIDATION
    assert run(["carleson", "--curve", "does-not-exist", "--n", "512",
                "--out", str(tmp_path / "c")]) == EXIT_VALIDATION
    # z = 1 is node 0 of the circle: the samples would hold an infinity
    assert run(["norm", "--curve", "circle", "--n", "4096", "--function", "pole:1,0",
                "--out", str(tmp_path / "d")]) == EXIT_VALIDATION
    assert not (tmp_path / "d" / "report.json").exists()
    # 16 circle nodes alias the 32-mode certificate basis
    assert run(["sio-check", "--curve", "circle", "--n", "16",
                "--out", str(tmp_path / "e")]) == EXIT_VALIDATION
    assert not (tmp_path / "e" / "report.json").exists()
    for i, argv in enumerate((["sio-check", "--trials", "0"], ["sio-check", "--trials", "-1"],
                              ["multiplier", "--trials", "-3"],
                              ["dichotomy", "--symbol", "monomial:1", "--aspect", "-3"],
                              ["dichotomy", "--symbol", "monomial:1", "--aspect", "0"],
                              ["dichotomy", "--symbol", "cos", "--sizes", "256,128,64,32,16"],
                              ["dichotomy", "--curve", "ellipse:2,1", "--symbol", "monomial:1"],
                              ["dichotomy", "--curve", "ellipse:2,1", "--symbol", "cos"])):
        out = tmp_path / f"bad{i}"
        assert run([*argv, "--n", "256", "--out", str(out)]) == EXIT_VALIDATION
        assert not (out / "report.json").exists()


@pytest.mark.parametrize("spec", ["const:inf", "const:nan", "pole:nan,0", "csv:inf", "csv:j"])
def test_norm_rejects_non_finite_or_malformed_functions(tmp_path, capsys, spec):
    # the first four exited 0 with a nan or inf norm, some behind a
    # RuntimeWarning; a csv of node indices alone raised an IndexError
    if spec.startswith("csv"):
        path = tmp_path / "f.csv"
        rows = [f"{j},1.0,0.5" if spec == "csv:inf" else f"{j}" for j in range(512)]
        rows[7] = "7,1.0,inf" if spec == "csv:inf" else "7"
        path.write_text("\n".join(rows) + "\n")
        spec = f"csv:{path}"
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["norm", "--n", "512", "--exponent", "2", "--function", spec,
                    "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert spec in err or "per-node csv" in err
    assert not out.exists()


def test_norm_past_the_float_range_exits_2(tmp_path, capsys):
    # a finite function whose norm overflows: exit 2 and no warning, not inf
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["norm", "--n", "512", "--exponent", "2+abs(sin)", "--function",
                    "const:1e308,1e308", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "exceeds the float range" in capsys.readouterr().err
    assert not out.exists()


def test_norm_of_a_subnormal_constant_is_certified(tmp_path):
    out = tmp_path / "out"
    code = run(["norm", "--n", "512", "--exponent", "2", "--function", "const:1e-320",
                "--out", str(out)])
    assert code == EXIT_OK
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["value"] == pytest.approx(1e-320 * np.sqrt(2 * np.pi), rel=1e-3)
    assert abs(res["modular_at_value"] - 1.0) <= 1e-14


def test_multiplier_subcommand(tmp_path):
    out = tmp_path / "mult"
    code = run(["multiplier", "--p", "4", "--q", "2", "--symbol", "one-plus-cos2",
                "--n", "512", "--out", str(out), "--trials", "8"])
    assert code == EXIT_OK
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["lower_bound"] <= res["theorem_value"] * (1.0 + 1e-9)
    assert res["witness_value"] == pytest.approx(res["theorem_value"], rel=0.02)


def test_multiplier_p_equals_q_gives_sup_norm(tmp_path):
    out = tmp_path / "sup"
    code = run(["multiplier", "--p", "2", "--q", "2", "--symbol", "one-plus-cos2",
                "--n", "512", "--out", str(out), "--trials", "8"])
    assert code == EXIT_OK
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["theorem_value"] == pytest.approx(2.0, rel=1e-10)  # max of 1 + cos^2
    assert res["lower_bound"] == pytest.approx(2.0, rel=0.01)


def test_dichotomy_verdict_schema_and_out_file(tmp_path):
    target = tmp_path / "d" / "my_verdict.json"
    code = run(["dichotomy", "--symbol", "monomial:1", "--p", "4", "--q", "2",
                "--sizes", "16,32", "--aspect", "8", "--n", "512",
                "--out", str(target)])
    assert code == EXIT_OK
    verdict = json.loads(target.read_text())
    assert sorted(verdict) == ["sigma_min_T", "sigma_min_companion", "sizes", "symbol",
                               "verdict"]
    assert verdict["verdict"] == "T-injective"
    assert verdict["sizes"] == [16, 32]


def test_dichotomy_fault_exit_code(tmp_path, monkeypatch):
    fake = DichotomyVerdict(
        symbol_name="fake", sizes=(16,), sigma_min_T=(1e-9,), sigma_min_companion=(1e-9,),
        kernel_dim_T=(1,), kernel_dim_companion=(1,), verdict="under-resolved", fault=True,
    )
    monkeypatch.setattr(cli, "dichotomy_probe", lambda *a, **k: fake)
    code = run(["dichotomy", "--symbol", "monomial:1", "--p", "4", "--q", "2",
                "--sizes", "16", "--n", "512", "--out", str(tmp_path / "f")])
    assert code == EXIT_FAULT
    # outputs still written for the post-mortem
    assert (tmp_path / "f" / "verdict.json").exists()


def test_carleson_subcommand(tmp_path):
    out = tmp_path / "car"
    code = run(["carleson", "--curve", "circle", "--n", "1024", "--out", str(out),
                "--export-curve"])
    assert code == EXIT_OK
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["constant_estimate"] == pytest.approx(np.pi, rel=0.02)
    assert (out / "curve.csv").exists()


def _two_scan_carleson_report(curve_name, n):
    """``results`` and ``tables`` of ``carleson`` from two separate scans."""
    curve = curve_from_name(curve_name, n)
    base_grid = default_epsilon_grid(curve)
    base = carleson_constant(curve, base_grid, t_subsample=256)
    refined = carleson_constant(curve, refine_epsilon_grid(base_grid), t_subsample=512)
    change = (refined.constant_estimate - base.constant_estimate) / base.constant_estimate
    results = {
        "constant_estimate": refined.constant_estimate,
        "base_estimate": base.constant_estimate,
        "refinement_change": change,
        "argmax_radius": refined.argmax_radius,
        "argmax_point": refined.argmax_point,
        "grid": refined.grid_description(),
    }
    rows = [{"op": "carleson_constant", "grid": "base",
             "estimate": base.constant_estimate},
            {"op": "carleson_constant", "grid": "refined",
             "estimate": refined.constant_estimate}]
    return json.loads(json.dumps(cli._plain({"results": results, "tables": {"carleson": rows}})))


@pytest.mark.parametrize("curve", ["circle", "ellipse:2,1", "square", "perturbed-circle:0.3,12"])
@pytest.mark.parametrize("n", [1000, 3000, 4096])
def test_carleson_one_scan_matches_the_two_scan_report(tmp_path, curve, n):
    assert run(["carleson", "--curve", curve, "--n", str(n),
                "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    assert {k: report[k] for k in ("results", "tables")} == _two_scan_carleson_report(curve, n)


def test_carleson_makes_one_scan(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return carleson_constant(*args, **kwargs)

    monkeypatch.setattr(cli, "carleson_constant", counting)
    assert run(["carleson", "--curve", "ellipse:2,1", "--n", "1024",
                "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 1


def test_sio_check_subcommand_csv(tmp_path):
    out = tmp_path / "sio"
    code = run(["sio-check", "--curve", "circle", "--n", "1024",
                "--exponent", "2", "--out", str(out), "--format", "csv", "--trials", "4"])
    assert code == EXIT_OK
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["projection_residuals"]["P2_minus_P"] < 1e-12
    # constant p = 2: the multiplier is an isometry on the mode basis
    assert res["norm_ratio_max"] <= 1.0 + 1e-10
    assert (out / "norm_ratios.csv").exists()
    rows = (out / "s_matrix.csv").read_text().splitlines()
    assert len(rows) == 32 and all(len(row.split(",")) == 32 for row in rows)
    written = np.array([[complex(entry) for entry in row.split(",")] for row in rows])
    expected = cauchy.adjoint_residuals(curve_from_name("circle", 1024), 32).s_matrix
    assert np.array_equal(written, expected)


def test_sio_check_reports_log_holder_failure_for_step(tmp_path):
    out = tmp_path / "step"
    code = run(["sio-check", "--curve", "circle", "--n", "2048",
                "--exponent", "step:2,3", "--out", str(out), "--trials", "2"])
    assert code == EXIT_OK
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["log_holder"]["holds"] is False
    assert np.isfinite(res["norm_ratio_max"])  # sweep still runs alongside


def test_sio_check_faults_when_a_residual_exceeds_its_threshold(tmp_path, capsys):
    # the dense path converges to first order on the square: adjoint residual 9.5e-2
    out = tmp_path / "square"
    code = run(["sio-check", "--curve", "square", "--n", "1024", "--trials", "2",
                "--out", str(out)])
    assert code == EXIT_FAULT
    assert "adjoint S residual" in capsys.readouterr().err
    assert (out / "report.json").exists()  # still written for the post-mortem

    out = tmp_path / "ellipse"
    code = run(["sio-check", "--curve", "ellipse:2,1", "--n", "1024", "--trials", "2",
                "--out", str(out)])
    assert code == EXIT_OK
    res = json.loads((out / "report.json").read_text())["results"]
    threshold = cli.S_RESIDUAL_THRESHOLDS["split"]
    assert max(res["projection_residuals"].values()) < threshold
    assert max(res["adjoint_residuals"].values()) < threshold


def test_smooth_curves_skip_the_dense_kernel(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense kernel built on a smooth curve")

    dense = cauchy._quadrature_S
    monkeypatch.setattr(cauchy, "_quadrature_S", refuse)
    for curve in ("ellipse:2,1", "perturbed-circle:0.1,5"):
        code = run(["sio-check", "--curve", curve, "--n", "1024", "--trials", "2",
                    "--out", str(tmp_path / curve.replace(":", "-"))])
        assert code == EXIT_OK

    calls = []
    monkeypatch.setattr(cauchy, "_quadrature_S",
                        lambda *args, **kwargs: calls.append(1) or dense(*args, **kwargs))
    run(["sio-check", "--curve", "square", "--n", "256", "--trials", "2",
         "--out", str(tmp_path / "square")])
    assert calls


def _count_calls(monkeypatch, name, modules=(cauchy,)):
    """Record the shape of the second argument of every call to <name> made
    through the bindings of ``modules``; the first one defines it."""
    shapes = []
    original = getattr(modules[0], name)

    def counting(curve, f, *args, **kwargs):
        shapes.append(np.shape(f))
        return original(curve, f, *args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return shapes


def test_sio_check_takes_every_offcurve_target_in_one_call(tmp_path, monkeypatch):
    # the 4 corpus functions at 4 offsets x 2 sides x 256 targets share one call
    shapes = _count_calls(monkeypatch, "cauchy_offcurve")
    code = run(["sio-check", "--curve", "ellipse:2,1", "--n", "512", "--trials", "2",
                "--out", str(tmp_path / "sio")])
    assert code == EXIT_OK
    assert shapes == [(512, 4)]


def test_sio_check_builds_one_remainder_spectrum(tmp_path, monkeypatch):
    # 10 applications of S (2 per 8-mode block of the certificate, 1 Plemelj
    # stack, 1 norm-ratio stack) share the curve's C: one doubling, m = 64 and
    # then 128, for the run
    applied = _count_calls(monkeypatch, "_split_S")
    grids = _count_calls(monkeypatch, "_remainder_coefficients")
    code = run(["sio-check", "--curve", "ellipse:2,1", "--n", "2048",
                "--out", str(tmp_path / "sio")])
    assert code == EXIT_OK
    assert applied == [(2048, 16), (2048, 8)] * 4 + [(2048, 4), (2048, 24)]
    assert grids == [(64,), (128,)]


def test_sio_check_on_the_circle_takes_no_direct_offcurve_sum(tmp_path, monkeypatch):
    # the circle's off-curve sums go by FFT, and S takes the corpus in one call
    offcurve = _count_calls(monkeypatch, "cauchy_offcurve")
    applied = _count_calls(monkeypatch, "apply_S")
    paired = _count_calls(monkeypatch, "operator_matrix")
    code = run(["sio-check", "--curve", "circle", "--n", "512", "--trials", "2",
                "--out", str(tmp_path / "sio")])
    assert code == EXIT_OK
    assert offcurve == []
    # the mode-basis certificate, per 8-mode block: S of [B | HB], then S of
    # SB, then one pairing of B, SB, S^2 B and HSHB; then the corpus
    assert applied == [(512, 16), (512, 8)] * 4 + [(512, 4)]
    assert paired == [(32, 512)] * 4


@pytest.mark.parametrize("curve, n, bound_mib", [("circle", 4096, 7.5), ("ellipse:2,1", 2048, 4.5)])
def test_sio_check_peak_memory_at_the_bench_shapes(tmp_path, curve, n, bound_mib):
    # one whole invocation, report write included; it read 6.4 and 3.8 MiB
    # with the certificate in 8-mode blocks, and 20.2 and 7.5 MiB with its
    # full-size stacks
    args = ["sio-check", "--curve", curve, "--n", str(n), "--out", str(tmp_path / "sio")]
    assert run(args) == EXIT_OK  # first-call caches (the parser) stay out of the peak
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert run(args) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


def test_norm_command_takes_one_norm_and_one_unit_ball_norm(tmp_path, monkeypatch):
    # the result's norm, and the unit-ball check's own evaluation of norm <= 1
    norms = _count_calls(monkeypatch, "luxemburg_norm", (spaces, cli))
    code = run(["norm", "--n", "512", "--exponent", "2+abs(sin)", "--function", "abs-cos",
                "--out", str(tmp_path / "norm")])
    assert code == EXIT_OK
    assert norms == [(512,)] * 2


def test_multiplier_command_takes_the_theorem_and_the_witness_once(tmp_path, monkeypatch):
    theorem = _count_calls(monkeypatch, "multiplier_norm_via_theorem", (spaces, cli))
    witness = _count_calls(monkeypatch, "multiplier_witness", (spaces, cli))
    out = tmp_path / "mult"
    code = run(["multiplier", "--p", "2+abs(sin)", "--q", "2", "--symbol", "one-plus-cos2",
                "--n", "512", "--trials", "8", "--out", str(out)])
    assert code == EXIT_OK
    assert theorem == [(512,)] and witness == [(512,)]
    res = json.loads((out / "report.json").read_text())["results"]
    assert 0.0 < res["witness_value"] <= res["lower_bound"]


@pytest.mark.parametrize("symbol", ["one", "cos", "one-plus-cos2", "monomial:2"])
def test_multiplier_reads_node_values_on_any_curve(tmp_path, symbol):
    out = tmp_path / "mult"
    code = run(["multiplier", "--curve", "ellipse:2,1", "--n", "1024", "--symbol", symbol,
                "--trials", "8", "--out", str(out)])
    assert code == EXIT_OK
    res = json.loads((out / "report.json").read_text())["results"]
    assert 0.0 < res["lower_bound"] <= res["theorem_value"] * (1.0 + 1e-9)
    if symbol == "one":  # p = 4, q = 2: the norm of 1 in L^4 is |curve|^(1/4)
        length = curve_from_name("ellipse:2,1", 1024).arc_weights.sum()
        assert res["theorem_value"] == pytest.approx(length ** 0.25, rel=1e-12)
        assert res["lower_bound"] == pytest.approx(length ** 0.25, rel=1e-9)


def test_norm_uncertified_result_exits_3(tmp_path, capsys):
    out = tmp_path / "huge"
    code = run(["norm", "--curve", "circle", "--n", "512", "--exponent", "1e308",
                "--function", "const:2", "--out", str(out)])
    assert code == EXIT_FAULT
    err = capsys.readouterr().err
    # (2 / lam)^1e308 is 0 or inf for every lam but 2, where the modular is 2 pi
    assert "modular 6.28318530718 at value 2 " in err and "1e-10" in err
    report = json.loads((out / "report.json").read_text())
    assert "certified" not in report["results"]  # report layout unchanged


def test_json_out_path_without_verdict_file(tmp_path):
    # only dichotomy writes verdict.json; other commands just use the parent directory
    out = tmp_path / "n" / "x.json"
    code = run(["norm", "--curve", "circle", "--n", "512", "--out", str(out)])
    assert code == EXIT_OK
    assert (tmp_path / "n" / "report.json").exists()
    assert not out.exists()


def test_determinism_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["multiplier", "--p", "4", "--q", "2", "--symbol", "trig-random:3",
            "--n", "512", "--seed", "42", "--trials", "6"]
    assert run(args + ["--out", str(a)]) == EXIT_OK
    assert run(args + ["--out", str(b)]) == EXIT_OK
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"curve": "circle", "n_nodes": 512, "exponent": "3",
                               "function": "one", "seed": 7}))
    out = tmp_path / "out"
    code = run(["norm", "--config", str(cfg), "--exponent", "2", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["provenance"]["config"]["exponent"] == "2"  # CLI wins
    assert report["provenance"]["config"]["n_nodes"] == 512  # file value kept
    assert report["results"]["value"] == pytest.approx(np.sqrt(2 * np.pi), rel=1e-9)


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"curve": "circle", "wavelength": 3}))
    assert run(["norm", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_VALIDATION


@pytest.mark.parametrize("command, config", [
    ("norm", {"n_nodes": "4096"}),
    ("sio-check", {"trials": "5"}),
    ("dichotomy", {"sizes": 16}),
    ("norm", {"seed": "x"}),
    ("norm", {"n_nodes": 4096.5}),
    ("multiplier", {"p": 4}),
    ("dichotomy", {"aspect": "8"}),
    ("norm", [16, 32]),
    ("norm", {"format": "xml"}),
    ("carleson", {"export_curve": "yes"}),
], ids=["n_nodes-str", "trials-str", "sizes-int", "seed-str", "n_nodes-float", "p-int",
        "aspect-str", "top-level-list", "format-xml", "export_curve-str"])
def test_config_rejects_malformed_values(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def test_symbol_coefficients_csv(tmp_path):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("1,1.0,0.0\n")  # a(t) = t
    out = tmp_path / "out"
    code = run(["dichotomy", "--symbol", str(coeffs), "--p", "4", "--q", "2",
                "--sizes", "16,32", "--n", "512", "--out", str(out)])
    assert code == EXIT_OK
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] == "T-injective"


@pytest.mark.parametrize("rows, message", [
    ("1,inf,0.0\n", "non-finite Fourier coefficients"),
    ("0,1.0,0.0\n1,nan,0.0\n", "non-finite Fourier coefficients"),
    ("1,1.0,-inf\n", "non-finite Fourier coefficients"),
    ("0.5,1.0,0.0\n", "must be integers"),
    ("nan,1.0,0.0\n", "must be integers"),
    ("1,1.0,0.0\n1,2.0,0.0\n", "more than once"),
], ids=["inf", "nan", "imag-inf", "half-k", "nan-k", "repeated-k"])
@pytest.mark.parametrize("command", ["dichotomy", "multiplier"])
def test_symbol_coefficients_csv_rejects_bad_rows(tmp_path, capsys, command, rows, message):
    # an inf coefficient gave dichotomy sigma = nan and exit 0, and multiplier
    # theorem_value inf; k = 0.5 was read as 0, and a repeated k overwrote
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text(rows)
    out = tmp_path / "out"
    extra = ["--sizes", "16,32"] if command == "dichotomy" else ["--trials", "4"]
    code = run([command, "--symbol", str(coeffs), "--p", "4", "--q", "2", *extra,
                "--n", "512", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()
