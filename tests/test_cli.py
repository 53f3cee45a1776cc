import dataclasses
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import siolab.cauchy as cauchy
import siolab.cli as cli
import siolab.spaces as spaces
from siolab.cli import EXIT_FAULT, EXIT_OK, EXIT_VALIDATION, main
from siolab.curves import carleson_constant, curve_from_name, curve_to_csv
from siolab.exponents import exponent_from_preset
from siolab.toeplitz import DichotomyVerdict, symbol_from_preset


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON value")


def run(args):
    """main(args); every JSON file it leaves in its out directory must be strict JSON."""
    code = main(args)
    if "--out" in args:
        out = Path(args[args.index("--out") + 1])
        for path in (out.parent if out.suffix == ".json" else out).glob("*.json"):
            json.loads(path.read_text(), parse_constant=_not_json)
    return code


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
    assert res["upper_bound"] == pytest.approx(res["theorem_value"], rel=1e-10)


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


@pytest.mark.parametrize("curve", ["circle", "ellipse:2,1", "square", "perturbed-circle:0.3,12"])
@pytest.mark.parametrize("n", [1000, 3000, 4096])
def test_carleson_report_is_the_library_scan(tmp_path, monkeypatch, curve, n):
    # the scan reads nodes and weights alone, so on the same curve the report
    # it returned inside the run is what carleson_constant(curve) returns
    scanned = []

    def scan(c):
        scanned.append((c, carleson_constant(c)))
        return scanned[-1][1]

    monkeypatch.setattr(cli, "carleson_constant", scan)
    assert run(["carleson", "--curve", curve, "--n", str(n),
                "--out", str(tmp_path)]) == EXIT_OK
    (scanned_curve, report), = scanned
    reference = curve_from_name(curve, n)
    assert np.array_equal(scanned_curve.nodes, reference.nodes)
    assert np.array_equal(scanned_curve.arc_weights, reference.arc_weights)
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert results == cli._plain(dataclasses.asdict(report))


def test_carleson_report_shape(tmp_path):
    assert run(["carleson", "--curve", "ellipse:2,1", "--n", "512", "--format", "csv",
                "--export-curve", "--out", str(tmp_path)]) == EXIT_OK
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert set(results) == {"argmax_point", "argmax_radius", "constant_estimate"}
    rows = (tmp_path / "carleson.csv").read_text().splitlines()
    assert rows == ["estimate,op", f"{results['constant_estimate']!r},carleson_constant"]
    assert (tmp_path / "curve.csv").read_text() == curve_to_csv(curve_from_name("ellipse:2,1", 512))


@pytest.mark.parametrize("curve", ["ellipse:nan,1", "ellipse:inf,1"])
def test_non_finite_curve_exits_2_in_every_command(tmp_path, curve):
    for command in ("norm", "multiplier", "sio-check", "dichotomy", "carleson"):
        out = tmp_path / command
        assert run([command, "--curve", curve, "--n", "512", "--out", str(out)]) == EXIT_VALIDATION
        assert not (out / "report.json").exists()


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

    # the circle's n-node interpolant aliases the exterior pole's modes at
    # |z| = 2 by about 2^(-n/2): the circle path resolves the corpus from n = 96
    capsys.readouterr()
    for n, expected in ((64, EXIT_FAULT), (80, EXIT_FAULT), (96, EXIT_OK)):
        code = run(["sio-check", "--curve", "circle", "--n", str(n), "--trials", "2",
                    "--out", str(tmp_path / f"circle{n}")])
        assert code == expected, n
        assert ("rational P residual" in capsys.readouterr().err) == (code == EXIT_FAULT)


@pytest.mark.parametrize("curve", ["circle", "ellipse:2,1"])
def test_sio_check_judges_the_rational_oracle(tmp_path, capsys, monkeypatch, curve):
    # an exact P part off by 1e-6 at one node must fail the run, although S is right
    exact = cli.rational_corpus

    def skewed(*args, **kwargs):
        corpus = exact(*args, **kwargs)
        name, f, pf = corpus[1]
        pf = pf.copy()
        pf[7] += 1e-6
        return [*corpus[:1], (name, f, pf), *corpus[2:]]

    args = ["sio-check", "--curve", curve, "--n", "512", "--trials", "2"]
    assert run([*args, "--out", str(tmp_path / "exact")]) == EXIT_OK
    res = json.loads((tmp_path / "exact" / "report.json").read_text())["results"]
    assert max(res["plemelj_max_plus"], res["plemelj_max_minus"]) < 1e-13
    monkeypatch.setattr(cli, "rational_corpus", skewed)
    assert run([*args, "--out", str(tmp_path / "skewed")]) == EXIT_FAULT
    assert re.search(r"rational [PQ] residual 1e-06 exceeds", capsys.readouterr().err)
    res = json.loads((tmp_path / "skewed" / "report.json").read_text())["results"]
    assert res["plemelj_max_plus"] == pytest.approx(1e-6, rel=1e-6)
    assert res["plemelj_max_minus"] == pytest.approx(1e-6, rel=1e-6)


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


def test_sio_check_takes_every_offcurve_target_in_one_call(tmp_path, monkeypatch, count_calls):
    # the boundary limits of the 4 corpus functions at every node: P f and Q f
    # of the whole stack in one riesz_projections call
    shapes = count_calls(monkeypatch, "riesz_projections", modules=(cauchy, cli))
    code = run(["sio-check", "--curve", "ellipse:2,1", "--n", "512", "--trials", "2",
                "--out", str(tmp_path / "sio")])
    assert code == EXIT_OK
    assert shapes == [(4, 512)]


def test_sio_check_builds_one_remainder_spectrum(tmp_path, monkeypatch, count_calls):
    # 10 applications of S (2 per 8-mode block of the certificate, 1 stack of
    # the rational corpus, 1 norm-ratio stack) share the curve's C: one
    # doubling, m = 64 and then 128, for the run
    applied = count_calls(monkeypatch, "_split_S")
    grids = count_calls(monkeypatch, "_remainder_coefficients")
    code = run(["sio-check", "--curve", "ellipse:2,1", "--n", "2048",
                "--out", str(tmp_path / "sio")])
    assert code == EXIT_OK
    assert applied == [(16, 2048), (8, 2048)] * 4 + [(4, 2048), (24, 2048)]
    assert grids == [(64,), (128,)]


def test_sio_check_on_the_circle_takes_no_direct_offcurve_sum(tmp_path, monkeypatch, count_calls):
    # nothing is summed off the curve: the Plemelj limits are the corpus's
    # exact ones, and S takes the corpus in one call
    applied = count_calls(monkeypatch, "apply_S")
    paired = count_calls(monkeypatch, "operator_matrix")
    code = run(["sio-check", "--curve", "circle", "--n", "512", "--trials", "2",
                "--out", str(tmp_path / "sio")])
    assert code == EXIT_OK
    # the mode-basis certificate, per 8-mode block: S of [B | HB], then S of
    # SB, then one pairing of B, SB, S^2 B and HSHB; then the corpus
    assert applied == [(16, 512), (8, 512)] * 4 + [(4, 512)]
    assert paired == [(32, 512)] * 4


@pytest.mark.parametrize("curve, n, bound_mib",
                         [("circle", 4096, 5.75), ("ellipse:2,1", 2048, 3.3)])
def test_sio_check_peak_memory_at_the_bench_shapes(tmp_path, curve, n, bound_mib):
    # one whole invocation, report write included; it reads 4.8 and 2.8 MiB
    # with S and H writing into the certificate's workspace and S into the
    # trial polynomials, 6.0 and 3.4 MiB when each returned new arrays, and
    # 20.2 and 7.5 MiB with the certificate's full-size stacks
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


def test_norm_command_takes_one_norm_and_one_unit_ball_norm(tmp_path, monkeypatch, count_calls):
    # the result's norm, and the unit-ball check's own evaluation of norm <= 1
    norms = count_calls(monkeypatch, "luxemburg_norm", (spaces, cli))
    code = run(["norm", "--n", "512", "--exponent", "2+abs(sin)", "--function", "abs-cos",
                "--out", str(tmp_path / "norm")])
    assert code == EXIT_OK
    assert norms == [(512,)] * 2


def test_multiplier_command_takes_the_theorem_once(tmp_path, monkeypatch, count_calls):
    theorem = count_calls(monkeypatch, "multiplier_norm_via_theorem", (spaces, cli))
    out = tmp_path / "mult"
    code = run(["multiplier", "--p", "2+abs(sin)", "--q", "2", "--symbol", "one-plus-cos2",
                "--n", "512", "--trials", "8", "--out", str(out)])
    assert code == EXIT_OK
    assert theorem == [(512,)]
    res = json.loads((out / "report.json").read_text())["results"]
    assert 0.0 < res["lower_bound"] <= res["upper_bound"] <= res["lower_bound"] * (1.0 + 1e-10)


@pytest.mark.parametrize("curve, symbol", [("circle", "one-plus-cos2"), ("ellipse:2,1", "cos")])
def test_multiplier_lower_bound_does_not_depend_on_the_seed(tmp_path, curve, symbol):
    # the bound draws nothing at random, so only a random symbol reads the seed;
    # random trials gave the ellipse 1.00102 under seed 0 and 1.00720 under seed 1
    results = []
    for seed in (0, 1):
        out = tmp_path / f"seed{seed}"
        code = run(["multiplier", "--curve", curve, "--p", "2+abs(sin)", "--q", "2",
                    "--symbol", symbol, "--n", "1024", "--seed", str(seed), "--out", str(out)])
        assert code == EXIT_OK
        results.append(json.loads((out / "report.json").read_text())["results"])
    assert results[0] == results[1]


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


@pytest.mark.parametrize("command, code", [
    (["norm", "--exponent", "1e308", "--function", "abs-cos"], EXIT_FAULT),
    (["multiplier", "--p", "1e308", "--q", "1e308", "--symbol", "cos"], EXIT_OK),
])
def test_huge_exponents_answer_without_a_warning(tmp_path, command, code):
    # both printed "overflow encountered in multiply" from the log-sum-exp terms
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([*command, "--n", "512", "--out", str(tmp_path / "out")]) == code


# the best lower bound of the power method and its fixed trials at --trials 24
POWER_METHOD_LOWER = {"step:2,inf": 1.6473541, "step:3,inf": 2.0765857}


@pytest.mark.parametrize("p_spec, q_spec, K", [
    # theta = q/p is 0 where only p = inf, and 1 where q = inf
    ("inf", "2", 1.0),
    ("inf", "inf", 1.0),
    ("step:2,inf", "2", 2.0),
    ("step:3,inf", "step:2,inf", 4 / 3),
])
def test_multiplier_holder_constant_on_infinity_sets(tmp_path, monkeypatch, p_spec, q_spec, K):
    out = tmp_path / "mult"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no inf * 0 or inf / inf in K
        code = run(["multiplier", "--p", p_spec, "--q", q_spec, "--symbol", "one-plus-cos2",
                    "--n", "512", "--trials", "8", "--out", str(out)])
    assert code == EXIT_OK
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["equivalence_allowance"] == pytest.approx(K, rel=1e-12)
    lower, upper = res["lower_bound"], res["upper_bound"]
    if p_spec not in POWER_METHOD_LOWER:  # p = inf everywhere: the cap is 1, exactly
        assert lower <= upper <= lower * (1.0 + 1e-10)
        return
    assert lower > POWER_METHOD_LOWER[p_spec]
    # a finer cap grid narrows the bracket from both sides
    curve = curve_from_name("circle", 512)
    p, q = exponent_from_preset(p_spec, curve), exponent_from_preset(q_spec, curve)
    a = symbol_from_preset("one-plus-cos2", curve, 300, np.random.default_rng(0)).values
    monkeypatch.setattr(spaces, "CAP_GRID", np.arange(257) / 256.0)
    fine = spaces.multiplier_norm_lower(curve, a, p, q)
    assert lower <= fine.lower_bound <= fine.upper_bound <= upper


@pytest.mark.parametrize("factor, code", [(0.99, EXIT_OK), (1.01, EXIT_FAULT)])
def test_multiplier_judges_the_lower_bound_against_the_holder_constant(tmp_path, monkeypatch,
                                                                       capsys, factor, code):
    def inflated(*args, **kwargs):
        bounds = spaces.multiplier_norm_lower(*args, **kwargs)
        lower = factor * bounds.holder_constant * bounds.theorem_value
        return dataclasses.replace(bounds, lower_bound=lower, upper_bound=lower)

    monkeypatch.setattr(cli, "multiplier_norm_lower", inflated)
    assert run(["multiplier", "--p", "2+abs(sin)", "--q", "2", "--symbol", "one-plus-cos2",
                "--n", "512", "--trials", "8", "--out", str(tmp_path / "m")]) == code
    assert ("Hoelder constant" in capsys.readouterr().err) == (code == EXIT_FAULT)


@pytest.mark.parametrize("gap, code", [(1e-10, EXIT_OK), (3e-10, EXIT_FAULT)])
def test_multiplier_judges_the_bracket(tmp_path, monkeypatch, capsys, gap, code):
    # the lower bound is a ratio of two norms, each certified to 1e-10
    def crossed(*args, **kwargs):
        bounds = spaces.multiplier_norm_lower(*args, **kwargs)
        return dataclasses.replace(bounds, upper_bound=bounds.lower_bound * (1.0 - gap))

    monkeypatch.setattr(cli, "multiplier_norm_lower", crossed)
    assert run(["multiplier", "--p", "2+abs(sin)", "--q", "2", "--symbol", "one-plus-cos2",
                "--n", "512", "--out", str(tmp_path / "m")]) == code
    assert ("upper bound" in capsys.readouterr().err) == (code == EXIT_FAULT)


@pytest.mark.parametrize("argv, code, bounds", [
    (["multiplier", "--p", "4", "--q", "2", "--symbol", "singular:-0.2"], EXIT_VALIDATION, None),
    (["sio-check", "--curve", "ellipse:2,1", "--exponent", "inf"], EXIT_OK, ["inf", "inf"]),
    (["sio-check", "--curve", "circle", "--exponent", "step:2,inf"], EXIT_OK, [2.0, "inf"]),
], ids=["multiplier-singular", "sio-check-inf", "sio-check-step-inf"])
def test_non_finite_values_leave_strict_json_reports(tmp_path, capsys, argv, code, bounds):
    # these wrote Infinity, which no strict JSON parser reads, and the
    # multiplier claimed success on an infinite theorem value
    out = tmp_path / "out"
    assert run([*argv, "--n", "512", "--out", str(out)]) == code
    if code == EXIT_VALIDATION:
        assert "no finite L^r norm" in capsys.readouterr().err
        assert not out.exists()
        return
    report = json.loads((out / "report.json").read_text(), parse_constant=_not_json)
    assert report["results"]["log_holder"]["constant_estimate"] == "inf"
    assert report["results"]["log_holder"]["bounds"] == bounds


def test_plain_writes_non_finite_floats_as_strings():
    values = [np.inf, -np.inf, np.nan, 1.5, np.float32(-np.inf), complex(np.inf, 0.25)]
    assert cli._plain(values) == ["inf", "-inf", "nan", 1.5, "-inf", {"re": "inf", "im": 0.25}]


def test_json_out_path_without_verdict_file(tmp_path):
    # only dichotomy writes verdict.json; other commands just use the parent directory
    out = tmp_path / "n" / "x.json"
    code = run(["norm", "--curve", "circle", "--n", "512", "--out", str(out)])
    assert code == EXIT_OK
    assert (tmp_path / "n" / "report.json").exists()
    assert not out.exists()


@pytest.mark.parametrize("command, same", [("multiplier", True), ("sio-check", False)])
def test_trials_reach_the_report_only_where_they_are_read(tmp_path, command, same):
    # multiplier accepts --trials and ignores it, yet its provenance held the value;
    # sio-check draws that many trig polynomials
    reports = []
    for trials in ("8", "24"):
        out = tmp_path / trials
        assert run([command, "--n", "512", "--trials", trials, "--out", str(out)]) == EXIT_OK
        reports.append((out / "report.json").read_bytes())
    assert (reports[0] == reports[1]) == same


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


# small runs of each command, for what its report records
SMALL = {
    "norm": ["--n", "512"],
    "multiplier": ["--n", "512"],
    "sio-check": ["--n", "256", "--trials", "2"],
    "dichotomy": ["--n", "512", "--sizes", "16,32"],
    "carleson": ["--n", "512"],
}


@pytest.mark.parametrize("command", list(cli.COMMAND_KEYS))
def test_provenance_holds_the_keys_the_command_reads(tmp_path, command):
    # every command wrote all 13 experiment keys, and a top-level seed besides
    assert run([command, *SMALL[command], "--out", str(tmp_path)]) == EXIT_OK
    provenance = json.loads((tmp_path / "report.json").read_text())["provenance"]
    assert set(provenance["config"]) == {"command", *cli.COMMAND_KEYS[command]}
    assert "seed" not in provenance


UNREAD = [(command, key) for command in cli.COMMAND_KEYS
          for key in (f.name for f in dataclasses.fields(cli.ExperimentConfig))
          if key not in {*cli.COMMON_KEYS, *cli.COMMAND_KEYS[command],
                         *cli.UNREAD_KEYS.get(command, ())}]


@pytest.mark.parametrize("command, key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
def test_config_rejects_keys_the_command_does_not_read(tmp_path, capsys, command, key):
    # norm took {"sizes": [16, 32]} without a word, and it changed the report bytes
    value = {"command": command, "sizes": [16, 32]}.get(
        key, getattr(cli.ExperimentConfig, key, None))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error" in err and repr(key) in err and command in err
    assert not out.exists()


def test_multiplier_takes_trials_it_does_not_read_and_its_degree(tmp_path):
    # lab-mix passes --trials 24; the config-file key stays accepted with it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 8, "n_nodes": 512}))
    assert run(["multiplier", "--config", str(cfg), "--degree", "20",
                "--out", str(tmp_path)]) == EXIT_OK
    config = json.loads((tmp_path / "report.json").read_text())["provenance"]["config"]
    assert config["degree"] == 20 and "trials" not in config


def test_carleson_report_does_not_depend_on_the_seed(tmp_path):
    # carleson draws nothing, yet its report held the seed twice
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert run(["carleson", "--n", "512", "--seed", seed, "--out", str(out)]) == EXIT_OK
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["norm", "multiplier", "dichotomy"])
def test_export_curve_only_where_a_curve_is_written(tmp_path, capsys, command):
    # these took --export-curve, exited 0 and wrote no curve.csv
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "512", "--export-curve", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--export-curve" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eccentric_curve_refusal_names_the_speed_ratio(tmp_path, capsys):
    # the speed is 2 pi at nodes 0 and 256, 1e14 times below its maximum; the
    # refusal said the derivative vanished there
    assert run(["carleson", "--curve", "ellipse:1e14,1", "--n", "512",
                "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "min/max ratio 1e-14" in err and "1e-13" in err and "vanishes" not in err


def test_csv_symbol_values_are_the_sums_of_their_coefficients(tmp_path):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("-2,0.5,0.25\n0,1.0,0.0\n3,-1.5,2.0\n")
    curve = curve_from_name("ellipse:2,1", 1000)
    c = np.zeros(7, dtype=complex)
    c[[1, 3, 6]] = [0.5 + 0.25j, 1.0, -1.5 + 2.0j]
    theta = np.angle(curve.nodes)
    values = cli._symbol(str(coeffs), curve, 300, np.random.default_rng(0)).values
    assert np.array_equal(values, np.exp(1j * np.outer(theta, np.arange(-3, 4))) @ c)


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


@pytest.mark.parametrize("command, argv", [
    ("multiplier", ["--symbol", "trig-random:1000000000000000"]),
    ("multiplier", ["--symbol", "{csv}"]),
    ("norm", ["--n", "1000000000000000"]),
], ids=["trig-random", "csv-mode", "norm-nodes"])
def test_oversized_inputs_are_validation_errors(tmp_path, capsys, command, argv):
    # each asks numpy for petabytes, more than a 47-bit address space holds, so
    # the allocation fails before any memory is touched; it was a traceback and exit 1
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("1000000000000000,1.0,0.0\n")
    out = tmp_path / "out"
    argv = [arg.format(csv=coeffs) for arg in argv]
    assert run([command, *argv, "--out", str(out)]) == EXIT_VALIDATION
    assert "validation error: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()
