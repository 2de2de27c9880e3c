"""Golden artifacts: every subcommand on every shipped problem, frozen.

The shipped problems are all planar, so the sweep also covers one n = 3
quartic pair (`fixtures/quartic3_pair.json`, f = xi0*g + p with p
positive definite, built like the `lift` workload's generated inputs):
its `hs-xi` run bins 65,536 image points with the per-bin cap saturated.

Each run calls `slemma.cli.main` in process at the default seed and
records its exit code and the sha256 of every artifact it writes.  The
commands with CSV/SVG output run once with `--format csv` and once with
`--format svg` (both also write the JSON report); the others run with
`--format json`.  Three more runs pass the comma-separated vector flags
(`--lambdas`, `--x0`, `--z1`/`--z2`), which the default runs leave
unset.  `image` also runs at a few non-default seeds, because
the pairs its convexity probe tests, and the local searches it starts
from them, depend on the seed; at 1,024 samples the probe reports
violations on the three problems of `PROBE_PROBLEMS`, so those runs
freeze the violation lists too.  f >= 0 on `quartic3_pair`'s samples, so
its non-strict chain takes xi = 0 without a margin scan; `MARGIN_RUNS`
cover the n >= 3 scan at several seeds, with `hs-xi` on a second
generated quartic pair (`fixtures/quartic3_margin.json`, written by
`bench/workloads.n3_pair(random.Random("quartic3-margin:1"))`) and with
`nhs-xi` on the lifted sextic.  The n >= 3 samples come from NumPy ports of SciPy's
scrambled Halton sequence and `ndtri`, so their bytes follow NumPy's
random stream and no artifact depends on SciPy; the manifest records the
NumPy version it was frozen with and the comparison is skipped under
other versions.

Regenerate the manifest (only when a change of artifacts is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from slemma.cli import COMMANDS, CSV_COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).with_name("fixtures")
PROBLEMS = sorted((ROOT / "problems").glob("*.json")) + [FIXTURES / "quartic3_pair.json"]
MANIFEST = Path(__file__).with_name("golden_manifest.json")
IMAGE_SEEDS = (1, 2, 3)
# image runs at --samples 1024, where the convexity probe reports violations
PROBE_PROBLEMS = ("cubic_shared_zero.json", "sector_sextic_wide.json",
                  "sector_quartic_wide.json")
PROBE_SEEDS = range(4, 10)
# (command, problem, format, flags): runs that parse the vector flags
VECTOR_RUNS = (
    ("eigencheck", "switch_three_linear.json", "json", ["--lambdas", "0.634,0.183,0.183"]),
    ("simulate", "switch_sextic.json", "csv", ["--x0", "1,-0.7", "--t-end", "2"]),
    ("curve", "switch_sextic.json", "csv",
     ["--z1", "1,0", "--z2", "0.6,0.8", "--steps", "64"]),
)
# (command, problem, seeds; None is the default seed): n >= 3 runs whose
# non-strict chain reaches the margin scan with xi > 0
MARGIN_RUNS = (
    ("hs-xi", FIXTURES / "quartic3_margin.json", (None, 1, 2, 3)),
    ("nhs-xi", ROOT / "problems" / "affine_sextic_shift.json", (1, 2, 3)),
)


def _versions() -> dict:
    return {"numpy": np.__version__}


def _runs():
    """(key, argv) for every run of the sweep."""
    for command in COMMANDS:
        formats = ("csv", "svg") if command in CSV_COMMANDS else ("json",)
        for problem in PROBLEMS:
            for fmt in formats:
                yield f"{command} {problem.name} {fmt}", [
                    command, str(problem), "--format", fmt]
    for problem in PROBLEMS:
        for seed in IMAGE_SEEDS:
            yield f"image {problem.name} json seed={seed}", [
                "image", str(problem), "--format", "json", "--seed", str(seed)]
    for name in PROBE_PROBLEMS:
        for seed in PROBE_SEEDS:
            yield f"image {name} json seed={seed} --samples 1024", [
                "image", str(ROOT / "problems" / name), "--format", "json",
                "--seed", str(seed), "--samples", "1024"]
    for command, name, fmt, flags in VECTOR_RUNS:
        yield f"{command} {name} {fmt} {' '.join(flags)}", [
            command, str(ROOT / "problems" / name), "--format", fmt, *flags]
    for command, problem, seeds in MARGIN_RUNS:
        for seed in seeds:
            key = f"{command} {problem.name} json"
            argv = [command, str(problem), "--format", "json"]
            if seed is not None:
                key += f" seed={seed}"
                argv += ["--seed", str(seed)]
            yield key, argv


def sweep(out_root: Path) -> dict:
    """{"<command> <problem> <format>[ seed=N| flags]": {"exit": code, "artifacts": {name: sha256}}}"""
    results = {}
    for key, argv in _runs():
        out = out_root / key.replace(" ", "_")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--out-dir", str(out)])
        digests = {}
        if out.exists():
            for path in sorted(out.iterdir()):
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        results[key] = {"exit": code, "artifacts": digests}
    return results


def test_artifacts_match_the_golden_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["versions"] != _versions():
        pytest.skip(f"manifest frozen under {manifest['versions']}, running {_versions()}")
    got = sweep(tmp_path)
    assert set(got) == set(manifest["runs"])
    changed = [key for key in got if got[key] != manifest["runs"][key]]
    assert not changed, f"{len(changed)} run(s) changed, first: {changed[0]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = sweep(Path(tmp))
    MANIFEST.write_text(json.dumps({"versions": _versions(), "runs": runs},
                                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST} ({len(runs)} runs)", file=sys.stderr)
