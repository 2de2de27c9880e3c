"""Golden artifacts: every subcommand on every shipped problem, frozen.

The shipped problems are all planar, so the sweep also covers one n = 3
quartic pair (`fixtures/quartic3_pair.json`, f = xi0*g + p with p
positive definite, built like the `lift` workload's generated inputs):
its `hs-xi` run bins 65,536 image points with the per-bin cap saturated.

Each run calls `slemma.cli.main` in process at the default seed and
records its exit code and the sha256 of every artifact it writes.  The
commands with CSV/SVG output run once with `--format csv` and once with
`--format svg` (both also write the JSON report); the others run with
`--format json`.  `image` also runs at a few non-default seeds, because
the pairs its convexity probe tests, and the local searches it starts
from them, depend on the seed.  The n >= 3 samples come from NumPy ports of SciPy's
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
PROBLEMS = sorted((ROOT / "problems").glob("*.json")) + [
    Path(__file__).with_name("fixtures") / "quartic3_pair.json"]
MANIFEST = Path(__file__).with_name("golden_manifest.json")
IMAGE_SEEDS = (1, 2, 3)


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


def sweep(out_root: Path) -> dict:
    """{"<command> <problem> <format>[ seed=N]": {"exit": code, "artifacts": {name: sha256}}}"""
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
