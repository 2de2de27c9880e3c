"""Warm phase: one process drives slemma.cli.main(argv) one job at a time.

Started by run.py as `python3 bench/worker.py SPEC RESULT` from the root
of a checkout.  It runs one untimed warm-up pass, then the passes run.py
asks for on standard input: timed passes (a closed loop with a single
client) and, in a traced run, the same passes again with spans
installed.  Every job is
checked after its clock stops: exit code, byte-identical artifacts
against the earlier run of the same argv, oracles and the independent
re-check.  The result is written as JSON to RESULT.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _digests(out_dir: Path) -> tuple[dict, int]:
    digests, size = {}, 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def _blas_threads() -> int | None:
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _env() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


class Runner:
    def __init__(self, spec: dict, cli):
        from checks import check_job
        from workloads import job_seed

        self.cli = cli
        self.check_job = check_job
        self.jobs = spec["jobs"]
        self.seed = spec["workload_seed"]
        self.work = Path(spec["workdir"])
        self.seeds = {p: [job_seed(self.seed, p, j) for j in range(len(self.jobs))]
                      for p in range(1, spec["passes"] + 1)}
        self.digests: dict[tuple, dict] = {}
        self.executions: list[dict] = []
        self.ref_checks: dict[str, list] = {}
        self.tracer = None

    def run_job(self, j: int, pass_no: int, phase: str, keep: bool = False) -> dict:
        job = self.jobs[j]
        seed = self.seeds[pass_no][j]
        out = self.work / phase / f"p{pass_no}" / f"j{j:02d}"
        argv = job["argv"] + ["--seed", str(seed), "--out-dir", str(out)]
        sink = io.StringIO()
        if self.tracer is not None:
            self.tracer.job = f"{pass_no}:{job['id']}"
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = self.cli.main(argv)
            except SystemExit as e:
                rc = e.code
            except Exception:  # a crashing job is a failed job, not a crashed benchmark
                rc = "raised: " + traceback.format_exc(limit=3)
        seconds = perf_counter() - t0

        failures = []
        if rc != job["expect"]:
            failures.append(f"exit code {rc!r}, expected {job['expect']}")
        digests, size = _digests(out) if out.is_dir() else ({}, 0)
        key = (pass_no, j)
        if key in self.digests and self.digests[key] != digests:
            failures.append("artifacts differ from the earlier run of the same argv")
        self.digests.setdefault(key, digests)
        if out.is_dir():
            checked = self.check_job(job, out, self.seed)
            failures += checked
            if phase == "warmup":
                self.ref_checks[job["id"]] = checked
            if not keep:
                shutil.rmtree(out)
        rec = {"job": job["id"], "phase": phase, "pass": pass_no, "seconds": seconds,
               "bytes": size, "failures": failures}
        self.executions.append(rec)
        return rec

    def run_pass(self, pass_no: int, phase: str) -> None:
        for j in range(len(self.jobs)):
            self.run_job(j, pass_no, phase)


def _reply(payload) -> None:
    print(json.dumps(payload), flush=True)


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import slemma.cli as cli

    runner = Runner(spec, cli)
    # Warm-up: pass-1 argvs, kept as the reference artifacts for the
    # byte-identity checks of the timed pass 1 and of the cold phase.
    for j in range(len(runner.jobs)):
        runner.run_job(j, 1, "warmup", keep=True)
    _reply({"ref_digests": {runner.jobs[j]["id"]: runner.digests[(1, j)]
                            for j in range(len(runner.jobs))},
            "ref_checks": runner.ref_checks})

    # Commands from run.py, one per line: "timed P" and "traced P" run pass
    # P untraced or traced; "finish" writes the result.  The worker idles
    # between commands while run.py times set-up and cold subprocesses.
    tracer = None
    for line in sys.stdin:
        cmd, *rest = line.split()
        if cmd == "finish":
            break
        if cmd == "traced" and tracer is None:
            import spans

            tracer = runner.tracer = spans.Tracer()
            tracer.install()
        runner.run_pass(int(rest[0]), cmd)
        _reply("ok")
    if tracer is not None:
        tracer.uninstall()

    result = {"env": _env(), "executions": runner.executions,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        import spans

        timed = [r for r in runner.executions if r["phase"] == "timed"]
        traced = [r for r in runner.executions if r["phase"] == "traced"]
        wall = sum(r["seconds"] for r in traced)
        layers = spans.layer_metrics(tracer, len(traced), wall,
                                     sum(r["bytes"] for r in traced))
        layers["trace.overhead"] = sum(r["seconds"] for r in timed) / wall
        result["layers"] = layers
        result["span_totals"] = {
            name: {"calls": tracer.calls[name], "incl_ms": 1000 * tracer.incl[name],
                   "self_ms": 1000 * tracer.self_s[name]}
            for name in sorted(tracer.calls) if tracer.calls[name]}
        with open(spec["spans_out"], "w") as fh:
            for job, sid, parent, name, s0, s1 in tracer.spans:
                fh.write(json.dumps({"job": job, "id": sid, "parent": parent, "name": name,
                                     "start": s0, "end": s1}) + "\n")
    Path(argv[1]).write_text(json.dumps(result))
    _reply("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
