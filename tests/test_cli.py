"""Command-line behavior: exit codes, artifact files, payload shape."""

import csv
import json
import math
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from slemma import cli
from slemma.cli import COMMANDS, build_parser, main
from slemma.homog_core import DEFAULT_SEED, Verdict
from slemma.image_analysis import (
    CopositivityReport,
    ImageSummary,
    SampledPair,
    ShsConditionReport,
    ZeroMargin,
)
from slemma.s_lemma import MultiplierCertificate, MultiplierFailure, ReasonCode
from slemma.switched_systems import LfhdReport, ScanResult, SynthesisResult

from conftest import PENCIL_T, pencil_min_eigenvalues, quadratic_image, quadratic_pairs


def run(tmp_path, *argv):
    return main([*argv, "--out-dir", str(tmp_path)])


def read_payload(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def read_rows(tmp_path, name):
    with open(tmp_path / name, newline="") as fh:
        return list(csv.reader(fh))


# -------------------------------------------------------------- happy paths


def test_shs_xi_payload_and_exit(tmp_path, problems_dir):
    code = run(tmp_path, "shs-xi", str(problems_dir / "switch_sextic.json"))
    assert code == 0
    payload = read_payload(tmp_path, "shs-xi_switch_sextic.json")
    assert set(payload) == {"command", "problem", "config", "result"}
    assert payload["command"] == "shs-xi"
    assert payload["problem"] == "switch_sextic.json"
    assert payload["config"]["seed"] == DEFAULT_SEED
    assert payload["config"]["dilation"]["weights"] == [1.0, 1.0]
    res = payload["result"]
    assert res["ok"] is True
    assert res["xi"] == pytest.approx(2.6475887160230425, rel=1e-9)
    assert res["margin"] > 0.75


def test_zeros_detects_the_shared_zero(tmp_path, problems_dir):
    code = run(tmp_path, "zeros", str(problems_dir / "cubic_shared_zero.json"))
    assert code == 1
    payload = read_payload(tmp_path, "zeros_cubic_shared_zero.json")
    assert payload["result"]["margin"] < 1e-9
    assert payload["result"]["common_zero"] is True


@pytest.mark.parametrize("samples", ["5", "33"])
def test_zeros_trusts_the_exact_test_over_a_coarse_sample(tmp_path, problems_dir, samples):
    # no sample lands on the shared zero, so the margin clears the
    # threshold, but the exact n = 2 test finds the zero
    code = run(tmp_path, "zeros", str(problems_dir / "cubic_shared_zero.json"),
               "--samples", samples)
    assert code == 1
    result = read_payload(tmp_path, "zeros_cubic_shared_zero.json")["result"]
    assert result["margin"] > 1e-9
    assert result["common_zero"] is True and result["refined"] is False


def test_zeros_trusts_the_exact_test_over_a_near_zero_margin(tmp_path):
    # x1^2 - x2^2 and x1^2 - (1 + 2^-52)*x1*x2: the samples near (1, 1)
    # come within the threshold of both, but these floats share no zero
    def term(coeff, p1, p2):
        return {"coeff": coeff, "powers": [{"num": p1, "den": 1}, {"num": p2, "den": 1}]}

    spec = {"version": 1, "variables": ["x", "y"], "functions": {
        "f": [term(1.0, 2, 0), term(-1.0, 0, 2)],
        "g": [term(1.0, 2, 0), term(-(1.0 + 2.0 ** -52), 1, 1)]}}
    path = tmp_path / "near_zero.json"
    path.write_text(json.dumps(spec))
    assert run(tmp_path, "zeros", str(path)) == 0
    result = read_payload(tmp_path, "zeros_near_zero.json")["result"]
    assert result["margin"] <= result["threshold"]
    assert result["common_zero"] is False and result["refined"] is True


def test_hs_xi_fails_on_a_common_zero_the_samples_miss(tmp_path, problems_dir):
    code = run(tmp_path, "hs-xi", str(problems_dir / "cubic_shared_zero.json"),
               "--samples", "33")
    assert code == 1
    result = read_payload(tmp_path, "hs-xi_cubic_shared_zero.json")["result"]
    assert result["reason"] == "COMMON_ZERO"
    [check] = result["checks"]
    assert check["check"] == "zero_margin" and check["margin"] > 1e-9


def test_zeros_clean_pair_exits_zero(tmp_path, problems_dir):
    code = run(tmp_path, "zeros", str(problems_dir / "switch_sextic.json"))
    assert code == 0
    payload = read_payload(tmp_path, "zeros_switch_sextic.json")
    assert payload["result"]["margin"] > 0.25
    assert payload["result"]["common_zero"] is False


def test_image_with_csv_and_svg(tmp_path, problems_dir):
    code = run(tmp_path, "image", str(problems_dir / "sector_quartic_pi.json"),
               "--samples", "512", "--format", "csv")
    assert code == 0
    payload = read_payload(tmp_path, "image_sector_quartic_pi.json")
    assert payload["result"]["classification"] == "angular_sector"
    assert payload["result"]["phi"] == pytest.approx(3.14159265, abs=0.05)
    rows = read_rows(tmp_path, "image_sector_quartic_pi.csv")
    assert rows[0] == ["theta_or_index", "f", "g"]
    assert len(rows) == 1 + 512
    assert all(len(r) == 3 for r in rows[1:])

    code = run(tmp_path, "image", str(problems_dir / "sector_quartic_pi.json"),
               "--samples", "512", "--format", "svg")
    assert code == 0
    svg = (tmp_path / "image_sector_quartic_pi.svg").read_text()
    assert svg.startswith("<svg xmlns=") and svg.rstrip().endswith("</svg>")
    assert "<circle" in svg


def test_image_degenerate_pair(tmp_path, problems_dir):
    spec = {
        "version": 1,
        "variables": ["x", "y"],
        "functions": {
            "f": [
                {"coeff": 2.0, "powers": [{"num": 3, "den": 1}, {"num": 1, "den": 1}]},
                {"coeff": 2.0, "powers": [{"num": 1, "den": 1}, {"num": 3, "den": 1}]},
            ],
            "g": [
                {"coeff": -1.0, "powers": [{"num": 3, "den": 1}, {"num": 1, "den": 1}]},
                {"coeff": -1.0, "powers": [{"num": 1, "den": 1}, {"num": 3, "den": 1}]},
            ],
        },
    }
    path = tmp_path / "axes_only.json"
    path.write_text(json.dumps(spec))
    code = run(tmp_path, "image", str(path), "--samples", "4")
    assert code == 1
    payload = read_payload(tmp_path, "image_axes_only.json")
    assert "degenerate" in payload["result"]


def test_curve_csv_row_count(tmp_path, problems_dir):
    code = run(tmp_path, "curve", str(problems_dir / "switch_sextic.json"),
               "--steps", "64", "--z1", "1,0", "--z2", "0,1", "--format", "csv")
    assert code == 0
    rows = read_rows(tmp_path, "curve_switch_sextic.csv")
    assert rows[0] == ["theta", "f", "g"]
    assert len(rows) == 1 + 65  # closed curve repeats the start point
    payload = read_payload(tmp_path, "curve_switch_sextic.json")
    assert payload["result"]["start"] == pytest.approx(payload["result"]["end"])


@pytest.mark.parametrize("rows", [
    [(0, -0.0, math.nan), (1, math.inf, -math.inf), (-2, 5e-324, -5e-324),
     (3, 1e-5, 0.1), (4, 1e16, -1e22), (5, 1.0, 0.0), (6, 12345678901234567890, 2.5)],
    [],  # a header-only file
])
def test_csv_rows_are_what_csv_writer_writes(tmp_path, capsys, rows):
    header = ["t", "x_1", "sigma"]
    cli._write_csv(tmp_path / "got.csv", header, iter(rows))
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert capsys.readouterr().out == f"wrote {tmp_path / 'got.csv'}\n"


def test_copositive_strict_suffix(tmp_path, problems_dir):
    prob = str(problems_dir / "cubic_shared_zero.json")
    assert run(tmp_path, "copositive", prob) == 0
    assert run(tmp_path, "copositive", prob, "--strict") == 1
    assert (tmp_path / "copositive_cubic_shared_zero.json").exists()
    assert (tmp_path / "copositive_cubic_shared_zero_strict.json").exists()
    plain = read_payload(tmp_path, "copositive_cubic_shared_zero.json")
    strict = read_payload(tmp_path, "copositive_cubic_shared_zero_strict.json")
    assert plain["result"]["holds"] is True
    assert strict["result"]["holds"] is False


def test_copositive_strict_fails_on_an_exact_common_zero(tmp_path, problems_dir, capsys):
    # f = 4y^2 + 2xy and g = 2y^2 - xy - x^2 both vanish at (-2, 1) and cross
    # there transversally, so every sample clears the strict threshold
    prob = str(problems_dir.parent / "tests" / "fixtures" / "quadratic_common_zero.json")
    assert run(tmp_path, "zeros", prob) == 1
    assert run(tmp_path, "copositive", prob) == 0
    capsys.readouterr()
    assert run(tmp_path, "copositive", prob, "--strict") == 1
    assert "NOT strictly copositive with g (common zero detected)" in capsys.readouterr().out
    strict = read_payload(tmp_path, "copositive_quadratic_common_zero_strict.json")["result"]
    zeros = read_payload(tmp_path, "zeros_quadratic_common_zero.json")["result"]
    assert strict["holds"] is False and strict["vacuous"] is False
    assert strict["min_value"] > strict["threshold"]
    assert strict["witness"] == zeros["witness"]


def test_shs_check_exit_codes(tmp_path, problems_dir):
    assert run(tmp_path, "shs-check", str(problems_dir / "switch_sextic.json")) == 0
    assert run(tmp_path, "shs-check", str(problems_dir / "sector_quartic_pi.json")) == 1


def test_hs_xi_succeeds_on_the_sextic_pair(tmp_path, problems_dir):
    code = run(tmp_path, "hs-xi", str(problems_dir / "switch_sextic.json"))
    assert code == 0
    payload = read_payload(tmp_path, "hs-xi_switch_sextic.json")
    assert payload["result"]["ok"] is True
    assert payload["result"]["xi"] >= 0.0


def test_hs_xi_failure_exit(tmp_path, problems_dir):
    code = run(tmp_path, "hs-xi", str(problems_dir / "cubic_shared_zero.json"))
    assert code == 1
    payload = read_payload(tmp_path, "hs-xi_cubic_shared_zero.json")
    assert payload["result"]["ok"] is False
    assert payload["result"]["reason"] == "COMMON_ZERO"


def test_nhs_xi_on_the_shifted_pair(tmp_path, problems_dir):
    code = run(tmp_path, "nhs-xi", str(problems_dir / "affine_sextic_shift.json"))
    assert code == 0
    payload = read_payload(tmp_path, "nhs-xi_affine_sextic_shift.json")
    assert payload["result"]["ok"] is True
    assert payload["result"]["xi"] > 0
    assert payload["result"]["details"]["t1_margin"] > 0


def test_nhs_xi_needs_integer_powers(tmp_path, problems_dir):
    code = run(tmp_path, "nhs-xi", str(problems_dir / "switch_fractional.json"))
    assert code == 2


def test_lfhd_artifacts(tmp_path, problems_dir):
    prob = str(problems_dir / "switch_sextic.json")
    code = run(tmp_path, "lfhd", prob, "--samples", "256", "--format", "csv")
    assert code == 0
    payload = read_payload(tmp_path, "lfhd_switch_sextic.json")
    assert payload["result"]["status"] == "covered"
    assert payload["result"]["system"] == "S"
    assert payload["result"]["lyapunov"] == "V"
    assert payload["result"]["common_degree"] == pytest.approx(6.0)
    rows = read_rows(tmp_path, "lfhd_switch_sextic_regions.csv")
    assert rows[0] == ["theta_or_index", "argmin_subsystem", "min_derivative"]
    assert len(rows) == 1 + 256
    assert {r[1] for r in rows[1:]} <= {"1", "2"}

    code = run(tmp_path, "lfhd", prob, "--samples", "256", "--format", "svg")
    assert code == 0
    assert (tmp_path / "lfhd_switch_sextic_regions.svg").exists()


def test_combo_scan_feasible_and_empty(tmp_path, problems_dir):
    code = run(tmp_path, "combo-scan", str(problems_dir / "switch_sextic.json"),
               "--grid-step", "0.01")
    assert code == 0
    payload = read_payload(tmp_path, "combo-scan_switch_sextic.json")
    lo, hi = payload["result"]["interval"]
    assert lo <= 0.21 and hi >= 0.39
    assert payload["result"]["feasible_count"] >= len(payload["result"]["feasible"])

    code = run(tmp_path, "combo-scan", str(problems_dir / "switch_three_linear.json"),
               "--grid-step", "0.05")
    assert code == 1
    payload = read_payload(tmp_path, "combo-scan_switch_three_linear.json")
    assert payload["result"]["interval"] is None
    assert payload["result"]["feasible_count"] == 0
    assert payload["result"]["best_value"] > 0


def test_combo_synth_weights(tmp_path, problems_dir):
    code = run(tmp_path, "combo-synth", str(problems_dir / "switch_sextic.json"))
    assert code == 0
    payload = read_payload(tmp_path, "combo-synth_switch_sextic.json")
    lam = payload["result"]["lambdas"]
    assert sum(lam) == pytest.approx(1.0)
    assert payload["result"]["max_derivative"] < 0
    assert payload["result"]["certificate"]["ok"] is True


def test_simulate_with_trajectory_csv(tmp_path, problems_dir):
    code = run(tmp_path, "simulate", str(problems_dir / "switch_sextic.json"),
               "--x0", "1,-0.7", "--t-end", "0.2", "--format", "csv")
    assert code == 0
    payload = read_payload(tmp_path, "simulate_switch_sextic.json")
    assert payload["result"]["v_final"] < payload["result"]["v_initial"]
    assert payload["result"]["x0"] == [1.0, -0.7]
    rows = read_rows(tmp_path, "simulate_switch_sextic_trajectory.csv")
    assert rows[0] == ["t", "x_1", "x_2", "sigma", "V"]
    assert len(rows) == 1 + 201  # 200 steps plus the initial sample


def test_eigencheck_exit_codes(tmp_path, problems_dir):
    prob = str(problems_dir / "switch_three_linear.json")
    r3 = 3.0 ** 0.5
    s = 2 * r3 + 2.0
    lam = f"{2 * r3 / s},{1 / s},{1 / s}"
    assert run(tmp_path, "eigencheck", prob, "--lambdas", lam) == 1
    payload = read_payload(tmp_path, "eigencheck_switch_three_linear.json")
    assert abs(payload["result"]["max_eigenvalue"]) < 1e-9

    assert run(tmp_path, "eigencheck", prob, "--lambdas", "1,0,0") == 1
    assert run(tmp_path, "eigencheck", prob) == 2  # weights are required
    assert run(tmp_path, "eigencheck", prob, "--lambdas", "0.5,0.5") == 2
    assert run(tmp_path, "eigencheck",
               str(problems_dir / "switch_sextic.json"),
               "--lambdas", "0.5,0.5") == 2  # nonlinear subsystems


@pytest.mark.parametrize("lambdas", ["-1,0", "-0.5,-0.5", "0,0", "2,-1"])
def test_eigencheck_weights_must_be_a_convex_combination(tmp_path, problems_dir, capsys,
                                                        lambdas):
    # two copies of the unstable field x' = x: no convex combination of them
    # is stable, but the weights -1,0 make sym(A(lambda)) = -I
    raw = json.loads((problems_dir / "switch_three_linear.json").read_text())
    one = [[{"coeff": 1.0, "powers": [{"num": int(j == i), "den": 1} for j in range(2)]}]
           for i in range(2)]
    raw["functions"] = {"x1": one[0], "x2": one[1], "V": raw["functions"]["V"]}
    raw["systems"] = {"S": {"fields": [["x1", "x2"], ["x1", "x2"]]}}
    path = tmp_path / "unstable_pair.json"
    path.write_text(json.dumps(raw))
    assert run(tmp_path / "out", "eigencheck", str(path), f"--lambdas={lambdas}") == 2
    assert "nonnegative and not all zero" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # weights need not sum to 1: they are written as given
    assert run(tmp_path / "out", "eigencheck", str(path), "--lambdas=2,0") == 1
    res = read_payload(tmp_path / "out", "eigencheck_unstable_pair.json")["result"]
    assert res["lambdas"] == [2.0, 0.0] and res["max_eigenvalue"] == pytest.approx(2.0)


def _names(cls, drop=(), add=()):
    return {f.name for f in fields(cls)} - set(drop) | set(add)


@pytest.mark.parametrize("command, problem, report", [
    ("zeros", "switch_sextic.json", ZeroMargin),
    ("copositive", "switch_sextic.json", CopositivityReport),
    ("shs-check", "switch_sextic.json", ShsConditionReport),
    ("shs-xi", "switch_sextic.json", MultiplierCertificate),
    ("shs-xi", "cubic_shared_zero.json", MultiplierFailure),
    ("combo-synth", "switch_sextic.json", SynthesisResult),
])
def test_result_keys_are_the_report_fields(tmp_path, problems_dir, command, problem, report):
    """One key per report field, apart from the exceptions docs/schema.md lists."""
    run(tmp_path, command, str(problems_dir / problem))
    result = read_payload(tmp_path, f"{command}_{problem}")["result"]
    assert set(result) == _names(report)
    if report is SynthesisResult:
        assert set(result["certificate"]) == _names(MultiplierCertificate)
    if report is ShsConditionReport:
        assert set(result["image"]) == _names(ImageSummary, drop=("directions", "scatter"),
                                              add=("direction_count",))
    if report is MultiplierFailure:
        assert result["ok"] is False and result["reason"] == "COMMON_ZERO"


def _quadratic_problem(path, A, B):
    """A problem file with f = x^T A x and g = x^T B x."""
    n = len(A)

    def terms(Q):
        return [{"coeff": float(Q[i, j] if i == j else 2.0 * Q[i, j]),
                 "powers": [{"num": (k == i) + (k == j), "den": 1} for k in range(n)]}
                for i in range(n) for j in range(i, n)]

    path.write_text(json.dumps({"version": 1, "variables": [f"x{k + 1}" for k in range(n)],
                                "functions": {"f": terms(A), "g": terms(B)}}))
    return path


def test_n3_strict_search_agrees_with_the_exact_quadratic_answer(tmp_path):
    # For t in (-pi/2, 0), cos t*A + sin t*B is cos t*(A - xi*B) with
    # xi = -tan t > 0, so the pencil's eigenvalues there grid xi over
    # (0, inf).  shs-xi certifies exactly when some xi > 0 makes A - xi*B
    # positive definite, and shs-check holds exactly when phi < pi.
    outcomes = set()
    for i, (A, B) in enumerate(quadratic_pairs(7)):
        lam = pencil_min_eigenvalues(A, B)[(-np.pi / 2 < PENCIL_T) & (PENCIL_T < 0)]
        if abs(lam.max()) <= 0.01:
            continue
        strict = bool(lam.max() > 0)
        path = _quadratic_problem(tmp_path / f"pair{i}.json", A, B)
        assert (run(tmp_path, "shs-xi", str(path)) == 0) == strict, i
        assert (run(tmp_path, "shs-check", str(path)) == 0) == (
            quadratic_image(A, B)[0] < np.pi), i
        outcomes.add(strict)
    assert outcomes == {False, True}


# -------------------------------------------------------------- error paths


def test_missing_problem_file(tmp_path):
    assert run(tmp_path, "zeros", str(tmp_path / "absent.json")) == 2


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_csv_not_available_everywhere(tmp_path, problems_dir, fmt):
    code = run(tmp_path, "zeros", str(problems_dir / "switch_sextic.json"),
               "--format", fmt)
    assert code == 2
    assert not (tmp_path / "zeros_switch_sextic.json").exists()


def test_bad_anchor_vector(tmp_path, problems_dir):
    prob = str(problems_dir / "switch_sextic.json")
    assert run(tmp_path, "curve", prob, "--z1", "a,b") == 2
    assert run(tmp_path, "curve", prob, "--z1", "1,2,3") == 2


@pytest.mark.parametrize("dt,t_end", [("5", "1"), ("2", "1")])
def test_simulate_without_a_step_is_a_usage_error(tmp_path, problems_dir, capsys, dt, t_end):
    # t_end / dt rounds to 0 steps: no trajectory, so no V to report.
    code = run(tmp_path, "simulate", str(problems_dir / "switch_sextic.json"),
               "--dt", dt, "--t-end", t_end)
    assert code == 2
    err = capsys.readouterr().err
    assert "--dt" in err and "--t-end" in err
    assert not (tmp_path / "simulate_switch_sextic.json").exists()


def test_lfhd_needs_a_system(tmp_path, problems_dir):
    assert run(tmp_path, "lfhd", str(problems_dir / "cubic_shared_zero.json")) == 2


def test_a_malformed_section_is_a_parse_error(tmp_path, problems_dir, capsys):
    # a Lyapunov section that is a name, not an object of names
    raw = json.loads((problems_dir / "switch_sextic.json").read_text())
    path = tmp_path / "bad_lyapunov.json"
    path.write_text(json.dumps(dict(raw, lyapunov="V")))
    assert run(tmp_path / "out", "lfhd", str(path)) == 2
    assert capsys.readouterr().err == "error: 'lyapunov' must be a JSON object\n"
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_is_a_usage_error(tmp_path, problems_dir):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command", str(problems_dir / "switch_sextic.json")])
    assert exc.value.code == 2


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_sample_count_must_be_positive(tmp_path, problems_dir):
    for value in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "shs-xi", str(problems_dir / "switch_sextic.json"),
                "--samples", value)
        assert exc.value.code == 2


@pytest.mark.parametrize("command, problem", [
    ("zeros", "cubic_shared_zero.json"), ("lfhd", "switch_sextic.json"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_threshold_must_be_finite_and_nonnegative(tmp_path, problems_dir, command, problem,
                                                  value):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, str(problems_dir / problem), "--threshold", value)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, problem", [
    ("shs-xi", "problems/switch_sextic.json"), ("image", "problems/switch_sextic.json"),
    ("hs-xi", "tests/fixtures/quartic3_pair.json"),
])
def test_seed_must_be_nonnegative(tmp_path, problems_dir, command, problem):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, str(problems_dir.parent / problem), "--seed", "-5")
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_grid_step_must_be_positive(tmp_path, problems_dir):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "combo-scan", str(problems_dir / "switch_sextic.json"),
            "--grid-step", "0")
    assert exc.value.code == 2


@pytest.mark.parametrize("step", ["1.4", "1.9", "2.5"])
def test_grid_step_above_1_exits_2(tmp_path, problems_dir, capsys, step):
    # a step in (1, 2) used to round to one interval and scan the vertices alone
    assert run(tmp_path, "combo-scan", str(problems_dir / "switch_three_linear.json"),
               "--grid-step", step) == 2
    assert capsys.readouterr().err.strip() == "error: grid step must be in (0, 1]"
    assert not list(tmp_path.iterdir())
    assert run(tmp_path, "combo-scan", str(problems_dir / "switch_three_linear.json"),
               "--grid-step", "1") == 1


@pytest.mark.parametrize("flag,value", [
    ("--dt", "nan"), ("--dt", "inf"), ("--dt", "0"), ("--t-end", "inf"),
    ("--t-end", "nan"), ("--t-end", "-1"), ("--dwell", "inf"), ("--dwell", "nan"),
    ("--dwell", "0"),
])
def test_simulate_times_must_be_finite_and_positive(tmp_path, problems_dir, flag, value):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "simulate", str(problems_dir / "switch_sextic.json"), flag, value)
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("x0", ["nan,1", "1,inf", "0,-inf"])
def test_simulate_x0_must_be_finite(tmp_path, problems_dir, x0):
    code = run(tmp_path, "simulate", str(problems_dir / "switch_sextic.json"), "--x0", x0)
    assert code == 2
    assert not list(tmp_path.iterdir())


# at (0, 1e200) a power overflows in __call__, whose NumPy fallback must
# still hand the RK4 step a Python float: a NumPy scalar warns there
@pytest.mark.parametrize("x0", ["3e6,1", "1e100,1", "0,1e200"])
def test_simulate_non_finite_state_is_divergence(tmp_path, problems_dir, x0):
    code = run(tmp_path, "simulate", str(problems_dir / "switch_sextic.json"), "--x0", x0)
    assert code == 1
    payload = read_payload(tmp_path, "simulate_switch_sextic.json")
    assert set(payload["result"]) == {"diverged"}
    assert "not finite" in payload["result"]["diverged"]


def test_simulate_overflow_reaches_the_user_only_as_divergence(tmp_path, problems_dir):
    # A fresh interpreter: NumPy warnings print to its stderr, not to pytest's recorder.
    proc = subprocess.run(
        [sys.executable, "-m", "slemma.cli", "simulate", str(problems_dir / "switch_sextic.json"),
         "--x0", "1e100,1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""  # no RuntimeWarning from the scalar fallback
    assert "simulate: diverged (state norm is not finite" in proc.stdout


def _scaled(tmp_path, problems_dir, problem, factor):
    """`problem` with f and g multiplied by factor, or by factor["f"] and
    factor["g"]."""
    raw = json.loads((problems_dir / problem).read_text())
    for name in ("f", "g"):
        spec = raw["functions"][name]
        c = factor[name] if isinstance(factor, dict) else factor
        if isinstance(spec, list):
            for term in spec:
                term["coeff"] *= c
        else:
            spec["coeffs"] = {k: v * c for k, v in spec["coeffs"].items()}
    path = tmp_path / problem
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("command, problem, stage, factor", [
    ("shs-xi", "switch_sextic.json", "margin scan", 1e306),
    ("hs-xi", "switch_sextic.json", "margin scan", 1e306),
    ("nhs-xi", "affine_sextic_shift.json", "sample evaluation", 1e306),
    # largest coefficient 1.7e308/1.05: the samples stay finite, their hypot does not
    ("image", "cubic_shared_zero.json", "image classification", 1.7e308 / 1.05),
    # f's and g's largest coefficients (7 and 5) each scaled to 1.7e308/1.05:
    # the line check's directions overflow before the margin scan
    ("hs-xi", "switch_sextic.json", "image classification",
     {"f": 1.7e308 / 1.05 / 7, "g": 1.7e308 / 1.05 / 5}),
])
def test_overflow_is_an_internal_failure_naming_its_stage(tmp_path, problems_dir, capsys,
                                                          command, problem, stage, factor):
    path = _scaled(tmp_path, problems_dir, problem, factor)
    assert run(tmp_path / "out", command, str(path)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: overflow encountered in "), err
    assert not (tmp_path / "out").exists()


def test_image_reads_a_wide_sector_on_the_l_1000_sphere(tmp_path, problems_dir):
    # every theta point is projected onto the sphere with l = 1000, and the
    # probe reads the violation off the largest gap
    raw = json.loads((problems_dir / "sector_quartic_wide.json").read_text())
    raw["dilation"]["l"] = 1000
    path = tmp_path / "wide_l1000.json"
    path.write_text(json.dumps(raw))
    assert run(tmp_path / "out", "image", str(path)) == 0
    payload = read_payload(tmp_path / "out", "image_wide_l1000.json")
    assert payload["config"]["dilation"]["l"] == 1000.0
    assert payload["result"]["convexity_violations"]


def test_convexity_probe_overflow_names_its_stage(tmp_path, problems_dir, capsys):
    # the samples stay finite at this scale; only the probe's midpoints overflow
    path = _scaled(tmp_path, problems_dir, "switch_sextic.json", 1e308 / 7)
    assert run(tmp_path / "out", "image", str(path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: convexity probe: overflow encountered in "), err
    assert not (tmp_path / "out").exists()


def test_curve_overflow_names_its_stage(tmp_path, problems_dir, capsys):
    # f and g stay finite on the unit anchors; at |x| = 10 their sextic terms overflow
    path = _scaled(tmp_path, problems_dir, "switch_sextic.json", 1e306)
    assert run(tmp_path / "out", "curve", str(path), "--z1", "10,0", "--z2", "0,10",
               "--format", "csv") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: mixing curve: overflow encountered in "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("problem, function", [
    ("switch_sextic.json", "f"),
    ("switch_sextic.json", "s1_1"),
    ("affine_sextic_shift.json", "f"),
])
def test_non_finite_coefficients_are_usage_errors(tmp_path, problems_dir,
                                                   problem, function, bad):
    raw = json.loads((problems_dir / problem).read_text())
    spec = raw["functions"][function]
    if isinstance(spec, list):
        spec[0]["coeff"] = bad
    else:
        spec["coeffs"][next(iter(spec["coeffs"]))] = bad
    path = tmp_path / problem
    path.write_text(json.dumps(raw))
    for command in COMMANDS:
        assert run(tmp_path / "out", command, str(path)) == 2, command
    assert not (tmp_path / "out").exists()


def _report(cls, **flag):
    """An instance of the report dataclass `cls` with `flag` set and every
    other field None."""
    return cls(**{f.name: None for f in fields(cls)} | flag)


# (report type, flag, value, verdict, exit code): each report reads its
# verdict off the flag it already has, and `main` maps it to the exit code
VERDICT_TABLE = [
    (ZeroMargin, "common_zero", False, Verdict.HOLDS, 0),
    (ZeroMargin, "common_zero", True, Verdict.FAILS, 1),
    (CopositivityReport, "holds", True, Verdict.HOLDS, 0),
    (CopositivityReport, "holds", False, Verdict.FAILS, 1),
    (ShsConditionReport, "holds", True, Verdict.HOLDS, 0),
    (ShsConditionReport, "holds", False, Verdict.FAILS, 1),
    (MultiplierCertificate, "ok", True, Verdict.HOLDS, 0),
    (MultiplierFailure, "reason", ReasonCode.VERIFICATION_FAILED, Verdict.INCONCLUSIVE, 3),
    *[(MultiplierFailure, "reason", reason, Verdict.FAILS, 1) for reason in ReasonCode
      if reason is not ReasonCode.VERIFICATION_FAILED],
    (LfhdReport, "covered", True, Verdict.HOLDS, 0),
    (LfhdReport, "covered", False, Verdict.FAILS, 1),
    (ScanResult, "feasible", np.array([[0.5, 0.5]]), Verdict.HOLDS, 0),
    (ScanResult, "feasible", np.empty((0, 2)), Verdict.FAILS, 1),
    (SynthesisResult, "ok", True, Verdict.HOLDS, 0),
]


@pytest.mark.parametrize("cls, flag, value, verdict, code", VERDICT_TABLE)
def test_each_report_verdict_maps_to_one_exit_code(cls, flag, value, verdict, code):
    report = _report(cls, **{flag: value})
    assert report.verdict is verdict
    assert cli.EXIT_CODE[report.verdict] == code
    assert "verdict" not in {f.name for f in fields(cls)}  # never serialized


def test_the_verdict_table_covers_every_report_and_verdict():
    assert {row[0] for row in VERDICT_TABLE} == {
        ZeroMargin, CopositivityReport, ShsConditionReport, MultiplierCertificate,
        MultiplierFailure, LfhdReport, ScanResult, SynthesisResult}
    assert set(cli.EXIT_CODE) == set(Verdict) == {row[3] for row in VERDICT_TABLE}


def test_failed_combination_recheck_writes_a_failure_report(tmp_path, problems_dir,
                                                           monkeypatch):
    # an infinite threshold fails the fresh-sample derivative check of the
    # synthesized combination; the strict search itself is untouched
    monkeypatch.setattr("slemma.switched_systems._pos_threshold", lambda scale: math.inf)
    assert run(tmp_path, "combo-synth", str(problems_dir / "switch_sextic.json")) == 3
    res = read_payload(tmp_path, "combo-synth_switch_sextic.json")["result"]
    assert res["ok"] is False
    assert res["reason"] == "VERIFICATION_FAILED"
    assert res["stage"] == "combination"
    assert [c["check"] for c in res["checks"]] == [
        "zero_margin", "strict_copositivity", "shs_condition",
        "margin_maximization", "fresh_verification", "combination_verification"]
    assert res["checks"][-1]["ok"] is False
    assert res["checks"][-1]["max_derivative"] < 0


def test_unexpected_exceptions_exit_3(tmp_path, problems_dir, monkeypatch, capsys):
    def broken(args, problem):
        raise RuntimeError("boom")

    monkeypatch.setitem(COMMANDS, "zeros", broken)
    assert run(tmp_path, "zeros", str(problems_dir / "switch_sextic.json")) == 3
    assert capsys.readouterr().err.strip() == "internal error: RuntimeError: boom"


def test_internal_value_errors_exit_3(tmp_path, problems_dir, monkeypatch, capsys):
    # a NumPy ValueError inside a command is a bug, not a usage error
    def broken(*args, **kwargs):
        return np.zeros(3) + np.zeros(2)

    monkeypatch.setattr(SampledPair, "zero_margin", broken)
    assert run(tmp_path, "zeros", str(problems_dir / "switch_sextic.json")) == 3
    assert capsys.readouterr().err.startswith("internal error: ValueError: operands")


@pytest.mark.parametrize("command, problem, flags", [
    ("curve", "switch_sextic.json", ["--steps", "3"]),
    ("combo-scan", "switch_sextic.json", ["--grid-step", "3"]),
    ("combo-synth", "switch_three_linear.json", []),
    ("hs-xi", "switch_fractional.json", []),
    ("image", "affine_sextic_shift.json", []),
])
def test_flags_and_problems_a_command_cannot_take_exit_2(tmp_path, problems_dir, capsys,
                                                        command, problem, flags):
    assert run(tmp_path, command, str(problems_dir / problem), *flags) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ------------------------------------------------------------- determinism


def test_artifacts_are_byte_identical_across_runs(tmp_path, problems_dir):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["shs-xi", str(problems_dir / "switch_sextic.json"),
                     "--out-dir", str(out)]) == 0
        assert main(["image", str(problems_dir / "sector_sextic_wide.json"),
                     "--samples", "512", "--format", "csv",
                     "--out-dir", str(out)]) == 0
    for name in ["shs-xi_switch_sextic.json",
                 "image_sector_sextic_wide.json",
                 "image_sector_sextic_wide.csv"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------- repeated calls of main

PARSER_COUNT_SCRIPT = """
import argparse, sys
built = 0
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
from slemma.cli import main
for command in ("zeros", "copositive", "shs-check"):
    assert main([command, sys.argv[1], "--out-dir", sys.argv[2]]) == 0
print("parsers:", built)
"""


def test_main_builds_its_parser_once_per_process(tmp_path, problems_dir):
    # A fresh interpreter, so that no earlier test has built the parser.
    # One build is 15 parsers: the top level, the shared options and the
    # 13 subcommands.
    proc = subprocess.run(
        [sys.executable, "-c", PARSER_COUNT_SCRIPT,
         str(problems_dir / "switch_sextic.json"), str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    built = [line for line in proc.stdout.splitlines() if line.startswith("parsers: ")]
    assert built == ["parsers: 15"]


def _alone_then_after(tmp_path, capsys, argv, earlier):
    """The exit code, stdout and artifacts of `argv` run on a freshly built
    parser, and again after `earlier(out_dir)` has run."""
    def outcome(out):
        capsys.readouterr()
        code = main([*argv, "--out-dir", str(out)])
        text = capsys.readouterr().out.replace(str(out), "OUT")
        return code, text, {p.name: p.read_bytes() for p in out.iterdir()}

    build_parser.cache_clear()
    alone = outcome(tmp_path / "alone")
    earlier(tmp_path / "earlier")
    return alone, outcome(tmp_path / "after")


def test_a_strict_run_leaves_the_next_run_as_it_would_be_alone(tmp_path, problems_dir,
                                                               capsys):
    problem = str(problems_dir / "switch_sextic.json")
    alone, after = _alone_then_after(
        tmp_path, capsys, ["copositive", problem],
        lambda out: main(["copositive", problem, "--strict", "--out-dir", str(out)]))
    assert alone == after
    assert list(alone[2]) == ["copositive_switch_sextic.json"]


def test_a_usage_error_leaves_the_next_run_as_it_would_be_alone(tmp_path, problems_dir,
                                                                capsys):
    problem = str(problems_dir / "cubic_shared_zero.json")

    def usage_error(out):
        with pytest.raises(SystemExit) as exc:
            main(["shs-xi", problem, "--samples", "0", "--out-dir", str(out)])
        assert exc.value.code == 2

    alone, after = _alone_then_after(tmp_path, capsys, ["zeros", problem], usage_error)
    assert alone == after
    assert alone[0] == 1


def test_an_explicit_seed_does_not_carry_to_the_next_run(tmp_path, problems_dir):
    problem = str(problems_dir / "switch_sextic.json")
    assert run(tmp_path / "a", "zeros", problem, "--seed", "5") == 0
    assert run(tmp_path / "b", "zeros", problem) == 0
    assert read_payload(tmp_path / "a", "zeros_switch_sextic.json")["config"]["seed"] == 5
    assert (read_payload(tmp_path / "b", "zeros_switch_sextic.json")["config"]["seed"]
            == DEFAULT_SEED)


def _help(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_is_the_same_on_every_call_and_from_a_fresh_parser(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    first, second = _help(capsys, main, argv), _help(capsys, main, argv)
    fresh = _help(capsys, build_parser.__wrapped__().parse_args, argv)
    assert first.startswith("usage: slemma")
    assert first == second == fresh


# ------------------------------------------------------------ import graph

# sha256 of sphere_samples(Dilation.standard(3), 4096, DEFAULT_SEED).tobytes():
# the n >= 3 samples are Owen-scrambled Halton points through the normal
# quantile map, frozen when they were drawn with SciPy 1.17.
HALTON_3D_SHA256 = "b4eb0a6577f7c41dad2b40fa4059dcc1b33e114a48bcc14898df8880dad4bc86"

IMPORT_GRAPH_SCRIPT = """
import hashlib, sys
from slemma.cli import main
assert main(["shs-xi", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
lazy = ("scipy.stats", "scipy.special", "concurrent.futures")
print("n2:", ",".join(m for m in lazy if m in sys.modules))
assert main(["hs-xi", sys.argv[3], "--out-dir", sys.argv[2]]) == 0
print("n3:", ",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
from slemma.homog_core import DEFAULT_SEED, Dilation, sphere_samples
X = sphere_samples(Dilation.standard(3), 4096, DEFAULT_SEED)
print("sha256:", hashlib.sha256(X.tobytes()).hexdigest())
"""


def test_n2_run_loads_no_scipy_and_halton_bytes_hold(tmp_path, problems_dir):
    # A fresh interpreter: the test process itself may have loaded SciPy.
    quartic3 = problems_dir.parent / "tests" / "fixtures" / "quartic3_pair.json"
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH_SCRIPT,
         str(problems_dir / "switch_sextic.json"), str(tmp_path), str(quartic3)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = dict(line.partition(": ")[::2] for line in proc.stdout.splitlines())
    assert report["n2"] == ""
    assert report["n3"] == ""
    assert report["sha256"] == HALTON_3D_SHA256
