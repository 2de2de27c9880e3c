"""Self-tests of the benchmark harness (about a minute; not part of tier 1).

    python3 -m pytest -q bench/test_bench.py

They show that a broken expectation raises the failed count, that the
re-check and the oracles reject weakened or wrong outputs, that every
name in BENCHMARK.json is printed with its unit, and that the harness
refuses to run where there is no program.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run_main(monkeypatch, argv) -> tuple[dict, str]:
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_name_is_printed(monkeypatch, spec, trace, key):
    result, text = _run_main(monkeypatch, ["--workload", "certify", "--seed", "5",
                                           "--seconds", "1", "--trace", str(trace)])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    lines = text.splitlines()
    for name, unit in wanted.items():
        assert any(ln.split()[:1] == [name] and ln.endswith(unit) for ln in lines), name


def test_broken_expectation_raises_failed(monkeypatch):
    def broken(workload, gen):
        jobs = workloads.jobs_for(workload, gen)
        jobs[0]["expect"] = 1            # `zeros switch_sextic` exits 0
        jobs[6]["oracles"] = ["scan_empty"]  # `combo-scan switch_sextic` is feasible
        return jobs

    monkeypatch.setattr(run, "jobs_for", broken)
    result, text = _run_main(monkeypatch, ["--workload", "certify", "--seed", "5",
                                           "--seconds", "1", "--trace", "0"])
    passes = workloads.passes_for("certify", 1)
    # each broken job fails in the warm-up and in every timed pass; the
    # combo-scan job also fails once in the cold phase
    assert result["failed"] == 2 * (passes + 1) + 1
    assert not result["correct"]
    assert "FAILED" in text and "exit code 0, expected 1" in text


def test_recheck_rejects_weakened_certificates():
    sextic = ROOT / "problems" / "switch_sextic.json"
    assert checks.recheck("strict", sextic, {"xi": 2.6476}, 1)[0]
    assert not checks.recheck("strict", sextic, {"xi": 8.0}, 1)[0]
    assert not checks.recheck("nonstrict", sextic, {"xi": 0.5}, 1)[0]
    affine = ROOT / "problems" / "affine_sextic_shift.json"
    ok = {"xi": 3.54, "details": {"box_radius": 10.0}}
    assert checks.recheck("nhs", affine, ok, 1)[0]
    assert not checks.recheck("nhs", affine, dict(ok, xi=1.0), 1)[0]
    combo = {"lambdas": [0.274, 0.726], "certificate": {"xi": 2.6476}}
    assert checks.recheck("combo", sextic, combo, 1)[0]
    assert not checks.recheck("combo", sextic, dict(combo, lambdas=[0.9, 0.1]), 1)[0]


def test_oracle_rejects_a_narrow_interval(tmp_path):
    job = workloads.certify_jobs()[6]
    report = {"result": {"interval": [0.25, 0.35], "feasible_count": 11}}
    (tmp_path / "combo-scan_switch_sextic.json").write_text(json.dumps(report))
    assert checks.check_job(job, tmp_path, 1) == [
        "oracle scan_sextic: interval [0.25, 0.35] vs [0.21, 0.39]"]


def test_n3_pairs_are_reproducible(tmp_path):
    a = workloads.write_n3_problems(7, tmp_path / "a")
    b = workloads.write_n3_problems(7, tmp_path / "b")
    c = workloads.write_n3_problems(8, tmp_path / "c")
    assert [Path(p).read_text() for p in a] == [Path(p).read_text() for p in b]
    assert [Path(p).read_text() for p in a] != [Path(p).read_text() for p in c]


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail([float(v) for v in range(1, 31)])
    assert value == 20.0 and pct == pytest.approx(100 * 20 / 30)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
