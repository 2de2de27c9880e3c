"""Golden artifacts: every subcommand on every shipped problem, frozen.

The shipped problems are planar but for one univariate pair
(`nhs_univariate_quartic.json`, whose lift is planar), so the sweep also
covers one n = 3 quartic pair (`fixtures/quartic3_pair.json`, f = xi0*g
+ p with p positive definite, built like the `lift` workload's generated
inputs): its `hs-xi` run reads its line hypothesis off the largest gap
between 65,536 image directions.

Each run calls `slemma.cli.main` in process at the default seed and
records its exit code and the sha256 of every artifact it writes.  The
commands with CSV/SVG output run once with `--format csv` and once with
`--format svg` (both also write the JSON report); the others run with
`--format json`.  Three more runs pass the comma-separated vector flags
(`--lambdas`, `--x0`, `--z1`/`--z2`), which the default runs leave
unset.  `image` also runs at a few non-default seeds, because n >= 3
samples, and the cover their gaps are read off, depend on the seed;
at 1,024 samples the probe reports violations on the three problems of
`PROBE_PROBLEMS`, so those runs freeze the violation lists at a coarser
sample spacing too.  f >= 0 on `quartic3_pair`'s samples, so
its non-strict chain takes xi = 0 without a margin scan; `MARGIN_RUNS`
cover the n >= 3 scan at several seeds, with `hs-xi` on a second
generated quartic pair (`fixtures/quartic3_margin.json`, written by
`bench/workloads.n3_pair(random.Random("quartic3-margin:1"))`) and with
`nhs-xi` on the lifted sextic.  No shipped problem has a sphere
exponent l != 2, so `SPHERE_RUNS` run `image` on `sector_quartic_wide`
with l = 3 (`fixtures/sector_quartic_wide_l3.json`), where every point
of the theta grid and of direction refinement is projected onto the
sphere.  No shipped pair is n >= 3 with an image that is the whole
plane, so `COVER_RUNS` run `image` on a pair of quadratic forms on R^3
(`fixtures/quadratic3_spurious_gap.json`): its image is convex (Dines)
and is the whole plane, though its sorted sample directions leave
thousands of gaps above the tolerance, one of them wider than pi, which
the cover closes.  No shipped pair has an image that is a line through
the origin, so `LINE_RUNS` run `image` and `shs-check` on two pairs with
g = -2f exactly (`fixtures/line_quartic.json`, n = 2, and
`fixtures/line_quartic3.json`, n = 3), whose f takes both signs.  No
shipped problem mixes weights 1 and 2 either, so
`MIXED_RUNS` run `zeros`, `copositive` and `image` on a quartic pair
with weights (1, 2) and l = 3 (`fixtures/mixed_quartic_l3.json`), where
projecting each theta point scales a weight-1 and a weight-2 column
together; the `image` CSV changes if the weight-2 column is rounded
differently.  `STRICT_RUNS` run `copositive --strict` on every shipped
problem and on the three pair fixtures, whose strict reports the default
runs leave out.  The default `combo-scan` grid has 101 or 5,151 points, so
`SCAN_RUNS` also scan finer grids (20,301 points on `switch_three_linear`,
at several seeds, and 1,001 and 501 points on the two planar systems,
where hundreds of points are feasible), whose reports freeze the
feasible list, the best combination and its value.  The n >= 3 samples
come from NumPy ports of SciPy's scrambled Halton sequence and `ndtri`,
so their bytes follow NumPy's random stream and no artifact depends on
SciPy; the manifest records the NumPy version it was frozen with and
the comparison is skipped under other versions.

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
# runs on a sphere with l != 2, where theta points are projected
SPHERE_RUNS = (
    ("image", FIXTURES / "sector_quartic_wide_l3.json", (None, *IMAGE_SEEDS)),
)
# n >= 3 runs whose cover closes every gap between sample directions: a
# pair of quadratic forms on R^3 whose image is the whole plane
COVER_RUNS = (
    ("image", FIXTURES / "quadratic3_spurious_gap.json", (None, *IMAGE_SEEDS)),
)
# runs on pairs with g = -2f exactly, n = 2 and n = 3, whose image is a
# line through the origin
LINE_RUNS = tuple((command, FIXTURES / name, (None,))
                  for name in ("line_quartic.json", "line_quartic3.json")
                  for command in ("image", "shs-check"))
# (command, format): runs on a (1, 2) dilation with l = 3
MIXED = FIXTURES / "mixed_quartic_l3.json"
MIXED_RUNS = (("zeros", "json"), ("copositive", "json"), ("image", "csv"))
# problems that `copositive --strict` runs on
STRICT_RUNS = (*PROBLEMS, MIXED, FIXTURES / "sector_quartic_wide_l3.json")
# (problem, --grid-step, seeds; None is the default seed): combo-scan on
# grids finer than the default
SCAN_RUNS = (
    ("switch_three_linear.json", "0.005", (None, 1, 2)),
    ("switch_sextic.json", "0.001", (None,)),
    ("switch_fractional.json", "0.002", (None,)),
)


def _versions() -> dict:
    return {"numpy": np.__version__}


def _scan_runs():
    """(key, argv) for the runs of `SCAN_RUNS`."""
    for name, step, seeds in SCAN_RUNS:
        for seed in seeds:
            key = f"combo-scan {name} json --grid-step {step}"
            argv = ["combo-scan", str(ROOT / "problems" / name), "--format", "json",
                    "--grid-step", step]
            if seed is not None:
                key += f" seed={seed}"
                argv += ["--seed", str(seed)]
            yield key, argv


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
    for command, problem, seeds in MARGIN_RUNS + SPHERE_RUNS + COVER_RUNS + LINE_RUNS:
        for seed in seeds:
            key = f"{command} {problem.name} json"
            argv = [command, str(problem), "--format", "json"]
            if seed is not None:
                key += f" seed={seed}"
                argv += ["--seed", str(seed)]
            yield key, argv
    for command, fmt in MIXED_RUNS:
        yield f"{command} {MIXED.name} {fmt}", [command, str(MIXED), "--format", fmt]
    for problem in STRICT_RUNS:
        yield f"copositive {problem.name} json --strict", [
            "copositive", str(problem), "--format", "json", "--strict"]
    yield from _scan_runs()


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
