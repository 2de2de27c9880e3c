"""slemma benchmark: set-up, cold CLI and warm-job metrics for one workload.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics: set-up time (fresh interpreters
importing slemma.cli and loading the workload's problem files), cold
`python -m slemma.cli` subprocesses, and a warm closed loop with a single
client calling slemma.cli.main(argv) in one worker process.  --trace 1
runs the warm passes untraced and then traced, and reports the per-layer
metrics.  Every job's output is checked.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics.
See bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import COLD, WORKLOADS, job_seed, jobs_for, passes_for, write_n3_problems

SETUP_RUNS = 3
# The host's speed switches between regimes for minutes at a time (a
# shared VM).  A fresh interpreter importing part of the standard library,
# run before and after every set-up and cold subprocess, measures the
# regime; every reported time is divided by its median over
# PROCESS_PROBE_REF_S (README.md, "Speed normalization").  The reference
# is its typical median on the 2-core sandbox where the benchmark was
# defined.
PROCESS_PROBE = "import json, csv, argparse, fractions, dataclasses, decimal, email.parser"
PROCESS_PROBE_REF_S = 0.104
SUBPROCESS_TIMEOUT_S = 150
SETUP_CODE = ("import sys; import slemma.cli; from slemma.problems import load_problem; "
              "[load_problem(p) for p in sys.argv[1:]]")

END_TO_END = {
    "setup_s": "s",
    "cold_cli_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "homog_core.import_ms": "ms",
    "homog_core.scipy_import_ms": "ms",
    "homog_core.evaluate.ms": "ms/job",
    "homog_core.evaluate.calls": "calls/job",
    "homog_core.evaluate.term_rows": "rows/job",
    "homog_core.call.ms": "ms/job",
    "homog_core.call.calls": "calls/job",
    "homog_core.project.calls": "calls/job",
    "homog_core.sphere_samples.ms": "ms/job",
    "homog_core.sphere_samples.points": "points/job",
    "stp_poly.homogenize.ms": "ms/job",
    "stp_poly.to_generalized.ms": "ms/job",
    "problems.load_problem.ms": "ms/job",
    "image_analysis.sample_image.self_ms": "ms/job",
    "image_analysis.refinement_evals": "evals/job",
    "image_analysis.zero_margin.self_ms": "ms/job",
    "image_analysis.convexity_probe.self_ms": "ms/job",
    "image_analysis.mixing_curve.ms": "ms/job",
    "s_lemma.is_copositive.self_ms": "ms/job",
    "s_lemma.shs_condition.self_ms": "ms/job",
    "s_lemma.find_strict_multiplier.self_ms": "ms/job",
    "s_lemma.find_nonstrict_multiplier.self_ms": "ms/job",
    "s_lemma.find_nhs_multiplier.self_ms": "ms/job",
    "s_lemma.collisions": "count/job",
    "s_lemma.sphere_points_per_verdict": "points/verdict",
    "switched_systems.candidate_build.ms": "ms/job",
    "switched_systems.check_lfhd.self_ms": "ms/job",
    "switched_systems.synthesize_combination_n2.self_ms": "ms/job",
    "switched_systems.scan_combinations.self_ms": "ms/job",
    "switched_systems.scan_combinations.grid_points": "points/job",
    "switched_systems.simulate_min_switching.self_ms": "ms/job",
    "switched_systems.simulate_min_switching.steps": "steps/job",
    "cli.main.self_ms": "ms/job",
    "cli.artifact_bytes": "bytes/job",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    11th-largest sample, with the percentile it sits at."""
    s = sorted(values)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def _env_vars(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run(cmd: list[str], root: Path) -> tuple[subprocess.CompletedProcess, float]:
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=_env_vars(root), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S)
    return proc, perf_counter() - t0


def _digests(out_dir: Path) -> dict:
    if not out_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def setup_once(root: Path, files: list[str], *flags: str):
    """One fresh interpreter importing slemma.cli and loading the
    workload's problem files: (process, wall seconds)."""
    proc, dt = _run([sys.executable, *flags, "-c", SETUP_CODE, *files], root)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")
    return proc, dt


def cold_once(root: Path, work: Path, k: int, j: int, job: dict, seed: int,
              ref: dict) -> dict:
    """One cold subprocess on the pass-1 argv of job j.  Its artifacts must
    equal the warm reference, whose oracle and re-check verdicts they
    inherit."""
    out = work / "cold" / f"c{k}"
    argv = job["argv"] + ["--seed", str(job_seed(seed, 1, j)), "--out-dir", str(out)]
    proc, dt = _run([sys.executable, "-m", "slemma.cli", *argv], root)
    failures = []
    if proc.returncode != job["expect"]:
        failures.append(f"exit code {proc.returncode}, expected {job['expect']}: "
                        f"{proc.stderr.strip()[-300:]}")
    if _digests(out) != ref["ref_digests"].get(job["id"]):
        failures.append("cold artifacts differ from the warm run of the same argv")
    else:
        failures += ref["ref_checks"].get(job["id"], [])
    return {"job": job["id"], "phase": "cold", "seconds": dt, "failures": failures}


class Worker:
    """The warm worker process and its line protocol (see worker.py)."""

    def __init__(self, root: Path, work: Path, spec: dict):
        self.spec_path, self.result_path = work / "spec.json", work / "result.json"
        self.spec_path.write_text(json.dumps(spec))
        self.err_path = work / "worker.err"
        worker = Path(__file__).resolve().parent / "worker.py"
        with open(self.err_path, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(worker), str(self.spec_path), str(self.result_path)],
                cwd=root, env=_env_vars(root), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, text=True)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)

    def reply(self):
        if not self.sel.select(timeout=SUBPROCESS_TIMEOUT_S):
            raise RuntimeError("warm worker timed out")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("warm worker failed:\n" + self.err_path.read_text()[-3000:])
        return json.loads(line)

    def call(self, command: str):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def finish(self) -> dict:
        self.call("finish")
        self.proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
        return json.loads(self.result_path.read_text())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.sel.close()


def spread(count: int, rounds: int) -> dict[int, list[int]]:
    """Spread `count` samples evenly over `rounds` rounds: round -> indices."""
    at: dict[int, list[int]] = {}
    for i in range(count):
        at.setdefault(i * rounds // count, []).append(i)
    return at


def environment(root: Path, seed: int, worker_env: dict, load_start: float) -> dict:
    nproc = os.cpu_count() or 1
    git_sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "slemma").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    threads_env = os.environ.get("SLEMMA_THREADS")
    env = {"git_sha": git_sha, "src_sha256": src.hexdigest()[:16], "nproc": nproc,
           "affinity": len(os.sched_getaffinity(0)), **worker_env,
           "SLEMMA_THREADS": threads_env, "workload_seed": seed,
           "load_start": round(load_start, 2), "load_end": round(os.getloadavg()[0], 2)}
    flags = []
    if max(env["load_start"], env["load_end"]) > nproc:
        flags.append(f"load average above nproc={nproc}")
    if (env.get("blas_threads") or 0) > nproc:
        flags.append(f"BLAS threads {env['blas_threads']} above nproc={nproc}")
    if threads_env and threads_env.strip().isdigit() and int(threads_env) > nproc:
        flags.append(f"SLEMMA_THREADS={threads_env} above nproc={nproc}")
    env["flags"] = flags
    return env


def measure(root: Path, work: Path, args) -> tuple[dict, list[dict], dict, list[str]]:
    """Run one workload; returns (metrics, executions, env, notes)."""
    load_start = os.getloadavg()[0]
    gen = []
    if args.workload == "lift":
        gen = [str(Path(p).relative_to(root))
               for p in write_n3_problems(args.seed, work / "gen")]
    jobs = jobs_for(args.workload, gen)
    files = sorted({j["argv"][1] for j in jobs})
    passes = passes_for(args.workload, args.seconds / 2.0 if args.trace else args.seconds)
    spec = {"root": str(root), "jobs": jobs, "workload_seed": args.seed,
            "workdir": str(work / "warm"), "passes": passes,
            "spans_out": str(root / ".bench_out" / f"spans-{args.workload}.jsonl")}

    setup, cold, proc_probes = [], [], []
    worker = Worker(root, work, spec)
    try:
        ref = worker.reply()  # sent after the warm-up pass
        if args.trace:
            from spans import parse_importtime

            profile = parse_importtime(setup_once(root, files, "-X", "importtime")[0].stderr)
            for p in range(1, passes + 1):
                worker.call(f"timed {p}")
            for p in range(1, passes + 1):
                worker.call(f"traced {p}")
        else:
            # Set-up and cold runs are spread over the warm passes, so that
            # every metric samples the whole run rather than one stretch of
            # a machine whose speed drifts.
            setup_at = spread(SETUP_RUNS, passes)
            cold_at = spread(len(COLD[args.workload]), passes)

            def process_probe():
                proc_probes.append(_run([sys.executable, "-c", PROCESS_PROBE], root)[1])

            for r in range(passes):
                for _ in setup_at.get(r, []):
                    process_probe()
                    setup.append(setup_once(root, files)[1])
                    process_probe()
                for k in cold_at.get(r, []):
                    process_probe()
                    j = COLD[args.workload][k]
                    cold.append(cold_once(root, work, k, j, jobs[j], args.seed, ref))
                    process_probe()
                worker.call(f"timed {r + 1}")
        warm = worker.finish()
    finally:
        worker.close()

    executions = warm["executions"] + cold
    notes = [f"jobs per pass: {len(jobs)}; timed passes: {passes}"]
    if args.trace:
        metrics = {**profile, **warm["layers"]}
        notes.append("span totals (calls, inclusive ms, self ms over all traced jobs):")
        notes += [f"  {n:58s} {v['calls']:9d} {v['incl_ms']:11.1f} {v['self_ms']:11.1f}"
                  for n, v in warm["span_totals"].items()]
    else:
        timed = [r for r in warm["executions"] if r["phase"] == "timed"]
        timed_ms = [1000.0 * r["seconds"] for r in timed]
        per_job: dict[str, list[float]] = {}
        for r in timed:
            per_job.setdefault(r["job"], []).append(r["seconds"])
        tail_ms, pct = tail(timed_ms)
        raw = {
            "setup_s": statistics.median(setup),
            "cold_cli_s": statistics.median(r["seconds"] for r in cold),
            "jobs_per_s": len(per_job) / sum(statistics.median(v) for v in per_job.values()),
            "job_ms_p50": statistics.median(timed_ms),
            "job_ms_tail": tail_ms,
        }
        factor = statistics.median(proc_probes) / PROCESS_PROBE_REF_S
        metrics = {k: v * factor if k == "jobs_per_s" else v / factor for k, v in raw.items()}
        metrics["peak_rss_mb"] = warm["peak_rss_mb"]
        notes += [
            f"speed factor {factor:.4f}: median of {len(proc_probes)} process probes over "
            f"{1000 * PROCESS_PROBE_REF_S:.1f} ms; times below are raw / factor",
            "raw: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()),
            f"setup_s: median of {len(setup)} fresh interpreters: "
            + ", ".join(f"{t:.4f}" for t in setup),
            f"cold_cli_s: median of {len(cold)} cold subprocesses: "
            + ", ".join(f"{r['job']}={r['seconds']:.4f}" for r in cold),
            f"jobs_per_s: {len(per_job)} jobs per pass over the sum of their median "
            f"latencies in {passes} passes",
            f"job_ms_p50: median of {len(timed_ms)} timed warm jobs",
            f"job_ms_tail: p{pct:.2f} of {len(timed_ms)} samples (10 beyond it)",
        ]
    env = environment(root, args.seed, warm["env"], load_start)
    return metrics, executions, env, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "slemma" / "cli.py").is_file() or not (root / "problems").is_dir():
        print(f"error: {root} holds no slemma checkout (src/slemma, problems/)",
              file=sys.stderr)
        return 2
    (root / ".bench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_out"))
    try:
        metrics, executions, env, notes = measure(root, work, args)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    failed = [r for r in executions if r["failures"]]
    print(f"slemma benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for flag in env["flags"]:
        print(f"WARNING: {flag}")
    for line in notes:
        print(line)
    for name, unit in units.items():
        print(f"{name:54s} {metrics[name]:16.6f} {unit}")
    print(f"{'failed_ratio':54s} {len(failed) / len(executions):16.6f} "
          f"({len(failed)} of {len(executions)} job runs)")
    for r in failed[:20]:
        print(f"FAILED {r['phase']} {r['job']}: {'; '.join(r['failures'])}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(executions),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
