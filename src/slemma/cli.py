"""Command-line front end.

Thirteen subcommands dispatch problem files to the analysis operations
and write deterministic artifacts: a JSON report always, plus CSV or SVG
data for the commands that have tabular or plottable output.  Exit codes:
0 success, 1 negative finding (a valid mathematical answer such as "no
multiplier exists"), 2 usage or parse error, 3 internal failure (a
certificate that failed its independent re-check, a float64 overflow
named by the stage it hit, or an unexpected exception: a bug, not a
finding).

Every JSON report's `result` is the command's report dataclass written
field by field (enums by value, arrays as lists); the few keys a report
drops or adds are named in its command handler (see docs/schema.md).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import functools
import json
import math
import sys
from enum import Enum
from pathlib import Path

import numpy as np

from .homog_core import DEFAULT_SEED, TWO_PI, UsageError
from .image_analysis import (
    DegenerateImageError,
    SampledPair,
    mixing_curve,
    zero_margin,
)
from .problems import Problem, ProblemError, load_problem
from .s_lemma import (
    MultiplierFailure,
    ReasonCode,
    find_nhs_multiplier,
    find_nonstrict_multiplier,
    find_strict_multiplier,
    is_copositive,
    shs_condition,
)
from .switched_systems import (
    DivergenceError,
    LfhdCandidate,
    check_lfhd,
    linear_combination_eigencheck,
    linear_matrix,
    scan_combinations,
    simulate_min_switching,
    synthesize_combination_n2,
)

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# The commands with tabular and plottable output: the only ones that take
# --format csv or --format svg.
CSV_COMMANDS = {"image", "curve", "lfhd", "simulate"}


# ---------------------------------------------------------------- artifacts


def _fields(report, drop=(), **extra) -> dict:
    """The JSON form of a report dataclass: its fields except `drop`,
    plus `extra`."""
    out = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
           if f.name not in drop}
    out.update(extra)
    return out


def _image_fields(summary, **extra) -> dict:
    """An ImageSummary without its direction and scatter arrays."""
    return _fields(summary, drop=("directions", "scatter"),
                   direction_count=len(summary.directions), **extra)


def _json_default(o):
    if dataclasses.is_dataclass(o):
        return _fields(o)
    if isinstance(o, Enum):
        return o.value
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON-serializable: {type(o)!r}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")
    print(f"wrote {path}")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    print(f"wrote {path}")


def _write_svg(path: Path, body: str) -> None:
    svg = ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 600 600" '
           'width="600" height="600">\n' + body + "</svg>\n")
    path.write_text(svg)
    print(f"wrote {path}")


def _svg_transform(points: np.ndarray):
    bound = float(np.max(np.abs(points))) if len(points) else 1.0
    if bound <= 0:
        bound = 1.0

    def to_px(p):
        x = 300.0 + 260.0 * p[0] / bound
        y = 300.0 - 260.0 * p[1] / bound
        return x, y

    return to_px


def _svg_axes() -> str:
    return ('<line x1="300" y1="40" x2="300" y2="560" stroke="#999" '
            'stroke-width="1"/>\n'
            '<line x1="40" y1="300" x2="560" y2="300" stroke="#999" '
            'stroke-width="1"/>\n')


def _svg_scatter(points: np.ndarray, colors=None) -> str:
    to_px = _svg_transform(points)
    parts = [_svg_axes()]
    for i, p in enumerate(points):
        x, y = to_px(p)
        fill = colors[i] if colors is not None else PALETTE[0]
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{fill}"/>\n')
    return "".join(parts)


def _svg_polyline(points: np.ndarray) -> str:
    to_px = _svg_transform(points)
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(to_px, points))
    return (_svg_axes()
            + f'<polyline points="{coords}" fill="none" stroke="{PALETTE[0]}" '
            'stroke-width="1.5"/>\n')


# ------------------------------------------------------------------ helpers


def _config(args, problem: Problem, **extra) -> dict:
    cfg = {
        "samples": args.samples,
        "seed": args.seed,
        "threshold": args.threshold,
        "grid_step": args.grid_step,
        "format": args.format,
        "dilation": problem.dilation.to_dict(),
    }
    cfg.update(extra)
    return cfg


def _payload(args, problem: Problem, result: dict, **extra) -> dict:
    return {
        "command": args.command,
        "problem": problem.path.name,
        "config": _config(args, problem, **extra),
        "result": result,
    }


def _out_path(args, stem_suffix: str, ext: str) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.problem).stem
    return out / f"{args.command}_{stem}{stem_suffix}.{ext}"


def _check_format(args) -> None:
    if args.format != "json" and args.command not in CSV_COMMANDS:
        raise ProblemError(f"--format {args.format} is not available for '{args.command}'")


def _parse_vector(text: str, n: int, name: str) -> np.ndarray:
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError:
        raise ProblemError(f"{name} must be comma-separated numbers") from None
    if len(vals) != n:
        raise ProblemError(f"{name} needs {n} components, got {len(vals)}")
    if not all(math.isfinite(v) for v in vals):
        raise ProblemError(f"{name} components must be finite")
    return np.array(vals)


def _positive(kind):
    """argparse type for a finite, strictly positive `kind` (a zero sample
    count or grid step would otherwise divide by zero deep inside a
    command, and an infinite time step or horizon overflow there)."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _multiplier_exit(res) -> int:
    if isinstance(res, MultiplierFailure):
        return 3 if res.reason is ReasonCode.VERIFICATION_FAILED else 1
    return 0


def _candidate(problem: Problem):
    sys_name, system = problem.single_system()
    v_name, V = problem.first_lyapunov()
    cand = LfhdCandidate.build(V, system, problem.dilation)
    return sys_name, v_name, cand


# ----------------------------------------------------------------- commands


def cmd_image(args, problem: Problem) -> int:
    f, g = problem.pair()
    pair = SampledPair.draw(f, g, problem.dilation, count=args.samples, seed=args.seed)
    try:
        summary = pair.image()
    except DegenerateImageError as e:
        _write_json(_out_path(args, "", "json"),
                    _payload(args, problem, {"degenerate": str(e)}))
        print(f"image: degenerate ({e})")
        return 1
    probe = pair.convexity_probe(summary)
    _write_json(_out_path(args, "", "json"),
                _payload(args, problem, _image_fields(summary, convexity_violations=probe)))
    if args.format == "csv":
        _write_csv(_out_path(args, "", "csv"), ["theta_or_index", "f", "g"],
                   ((float(r[0]), float(r[1]), float(r[2]))
                    for r in summary.scatter))
    if args.format == "svg":
        _write_svg(_out_path(args, "", "svg"), _svg_scatter(summary.scatter[:, 1:3]))
    print(f"image: {summary.classification.value}, "
          f"phi = {summary.phi / math.pi:.4f} pi, "
          f"{len(probe)} convexity violation(s)")
    return 0


def cmd_zeros(args, problem: Problem) -> int:
    f, g = problem.pair()
    threshold = 1e-9 if args.threshold is None else args.threshold
    zm = zero_margin(f, g, problem.dilation, threshold=threshold,
                     count=args.samples, seed=args.seed)
    _write_json(_out_path(args, "", "json"), _payload(args, problem, zm))
    ok = zm.margin > threshold
    print(f"zeros: margin = {zm.margin:.6g} "
          f"({'no common zero' if ok else 'common zero detected'})")
    return 0 if ok else 1


def cmd_curve(args, problem: Problem) -> int:
    f, g = problem.pair()
    n = problem.n
    z1 = (_parse_vector(args.z1, n, "--z1") if args.z1
          else np.eye(n)[0])
    z2 = (_parse_vector(args.z2, n, "--z2") if args.z2
          else np.eye(n)[min(1, n - 1)])
    curve = mixing_curve(f, g, problem.dilation, z1, z2, steps=args.steps)
    thetas = np.linspace(0.0, TWO_PI, args.steps + 1)
    result = {
        "steps": args.steps,
        "z1": list(map(float, z1)),
        "z2": list(map(float, z2)),
        "start": list(map(float, curve[0])),
        "end": list(map(float, curve[-1])),
    }
    _write_json(_out_path(args, "", "json"), _payload(args, problem, result))
    if args.format == "csv":
        _write_csv(_out_path(args, "", "csv"), ["theta", "f", "g"],
                   ((float(t), float(p[0]), float(p[1]))
                    for t, p in zip(thetas, curve)))
    if args.format == "svg":
        _write_svg(_out_path(args, "", "svg"), _svg_polyline(curve))
    print(f"curve: {args.steps} steps through the image plane")
    return 0


def cmd_copositive(args, problem: Problem) -> int:
    f, g = problem.pair()
    rep = is_copositive(f, g, problem.dilation, strict=args.strict,
                        count=args.samples, seed=args.seed)
    suffix = "_strict" if args.strict else ""
    _write_json(_out_path(args, suffix, "json"), _payload(args, problem, rep))
    kind = "strictly copositive" if args.strict else "copositive"
    print(f"copositive: f is {'' if rep.holds else 'NOT '}{kind} with g")
    return 0 if rep.holds else 1


def cmd_shs_check(args, problem: Problem) -> int:
    f, g = problem.pair()
    rep = shs_condition(f, g, problem.dilation, count=args.samples, seed=args.seed)
    _write_json(_out_path(args, "", "json"),
                _payload(args, problem, _fields(rep, image=_image_fields(rep.image))))
    print(f"shs-check: {'holds' if rep.holds else 'fails'} "
          f"(symmetrized gap {rep.symmetrized_gap:.6f} rad)")
    return 0 if rep.holds else 1


def cmd_xi(args, problem: Problem) -> int:
    """shs-xi, hs-xi and nhs-xi: the multiplier search named by the command."""
    f, g = problem.pair()
    if args.command == "nhs-xi":
        res = find_nhs_multiplier(f, g, count=args.samples, seed=args.seed)
    else:
        search = (find_strict_multiplier if args.command == "shs-xi"
                  else find_nonstrict_multiplier)
        res = search(f, g, problem.dilation, count=args.samples, seed=args.seed)
    _write_json(_out_path(args, "", "json"), _payload(args, problem, res))
    if isinstance(res, MultiplierFailure):
        print(f"{args.command}: failed ({res.reason.value})")
    elif args.command == "nhs-xi":
        print(f"nhs-xi: xi = {res.xi:.9g}, "
              f"t=1 margin = {res.details['t1_margin']:.6g}")
    else:
        print(f"{args.command}: xi = {res.xi:.9g}, margin = {res.margin:.6g}")
    return _multiplier_exit(res)


def cmd_lfhd(args, problem: Problem) -> int:
    sys_name, v_name, cand = _candidate(problem)
    rep = check_lfhd(cand, count=args.samples, seed=args.seed,
                     threshold=args.threshold)
    result = _fields(rep, drop=("uncovered_indices", "argmin", "min_values", "params"),
                     uncovered_count=len(rep.uncovered_indices), system=sys_name,
                     lyapunov=v_name, common_degree=cand.common_degree)
    _write_json(_out_path(args, "", "json"), _payload(args, problem, result))
    if args.format == "csv":
        _write_csv(_out_path(args, "_regions", "csv"),
                   ["theta_or_index", "argmin_subsystem", "min_derivative"],
                   rep.region_rows())
    if args.format == "svg" and problem.n == 2:
        X = np.column_stack([np.cos(rep.params), np.sin(rep.params)])
        colors = [PALETTE[(a - 1) % len(PALETTE)] for a in rep.argmin]
        _write_svg(_out_path(args, "_regions", "svg"), _svg_scatter(X, colors))
    print(f"lfhd: {rep.status} "
          f"(uncovered samples: {len(rep.uncovered_indices)})")
    return 0 if rep.covered else 1


def cmd_combo_synth(args, problem: Problem) -> int:
    sys_name, v_name, cand = _candidate(problem)
    res = synthesize_combination_n2(cand, count=args.samples, seed=args.seed)
    if isinstance(res, MultiplierFailure):
        _write_json(_out_path(args, "", "json"), _payload(args, problem, res))
        print(f"combo-synth: no certificate ({res.reason.value})")
        return _multiplier_exit(res)
    lam = res.combination.to_list()
    _write_json(_out_path(args, "", "json"),
                _payload(args, problem, _fields(res, drop=("combination",), lambdas=lam)))
    print(f"combo-synth: lambda = ({lam[0]:.6f}, {lam[1]:.6f}), "
          f"max derivative {res.max_derivative:.6g}")
    return 0


def cmd_combo_scan(args, problem: Problem) -> int:
    sys_name, v_name, cand = _candidate(problem)
    step = 0.01 if args.grid_step is None else args.grid_step
    scan = scan_combinations(cand, grid_step=step,
                             count=args.samples, seed=args.seed,
                             threshold=args.threshold)
    result = _fields(scan, best_lambda=scan.best_lambda.to_list(),
                     feasible=[c.to_list() for c in scan.feasible[:200]],
                     feasible_count=len(scan.feasible))
    _write_json(_out_path(args, "", "json"), _payload(args, problem, result))
    if scan.interval is not None:
        print(f"combo-scan: {len(scan.feasible)} feasible points, "
              f"lambda_1 interval [{scan.interval[0]:.4f}, {scan.interval[1]:.4f}]")
    else:
        print(f"combo-scan: {len(scan.feasible)} feasible points")
    return 0 if scan.feasible else 1


def cmd_simulate(args, problem: Problem) -> int:
    sys_name, v_name, cand = _candidate(problem)
    x0 = (_parse_vector(args.x0, problem.n, "--x0") if args.x0
          else np.ones(problem.n))
    if round(args.t_end / args.dt) < 1:
        raise ProblemError(f"--t-end {args.t_end:g} / --dt {args.dt:g} rounds to 0 steps; "
                           "--t-end must exceed half of --dt")
    try:
        traj = simulate_min_switching(cand, x0, dt=args.dt,
                                      t_end=args.t_end, dwell=args.dwell)
    except DivergenceError as e:
        _write_json(_out_path(args, "", "json"),
                    _payload(args, problem, {"diverged": str(e)}))
        print(f"simulate: diverged ({e})")
        return 1
    result = {
        "steps": len(traj.t) - 1,
        "dt": traj.dt,
        "dwell": traj.dwell,
        "v_initial": float(traj.v[0]),
        "v_final": float(traj.v[-1]),
        "final_state": [float(c) for c in traj.x[-1]],
        "switch_count": len(traj.switch_times),
        "x0": list(map(float, x0)),
    }
    _write_json(_out_path(args, "", "json"), _payload(args, problem, result))
    if args.format == "csv":
        header = ["t"] + [f"x_{i + 1}" for i in range(problem.n)] + ["sigma", "V"]
        _write_csv(_out_path(args, "_trajectory", "csv"), header, traj.rows())
    if args.format == "svg":
        pts = traj.x[:, :2] if problem.n >= 2 else np.column_stack([traj.t, traj.x[:, 0]])
        _write_svg(_out_path(args, "_trajectory", "svg"), _svg_polyline(pts))
    print(f"simulate: V {traj.v[0]:.6g} -> {traj.v[-1]:.6g} "
          f"over {traj.t[-1]:.3g}s, {len(traj.switch_times)} switches")
    return 0


def cmd_eigencheck(args, problem: Problem) -> int:
    sys_name, system = problem.single_system()
    try:
        matrices = [linear_matrix(f) for f in system.fields]
    except ValueError as e:
        raise ProblemError(f"eigencheck needs linear subsystems: {e}") from None
    if not args.lambdas:
        raise ProblemError("eigencheck requires --lambdas w1,w2,...")
    lam = _parse_vector(args.lambdas, system.count, "--lambdas")
    val = linear_combination_eigencheck(matrices, lam)
    result = {
        "system": sys_name,
        "lambdas": list(map(float, lam)),
        "max_eigenvalue": val,
    }
    _write_json(_out_path(args, "", "json"), _payload(args, problem, result))
    print(f"eigencheck: max eigenvalue of sym(A(lambda)) = {val:.6g}")
    return 0 if val < 0 else 1


COMMANDS = {
    "image": cmd_image,
    "zeros": cmd_zeros,
    "curve": cmd_curve,
    "copositive": cmd_copositive,
    "shs-check": cmd_shs_check,
    "shs-xi": cmd_xi,
    "hs-xi": cmd_xi,
    "nhs-xi": cmd_xi,
    "lfhd": cmd_lfhd,
    "combo-synth": cmd_combo_synth,
    "combo-scan": cmd_combo_scan,
    "simulate": cmd_simulate,
    "eigencheck": cmd_eigencheck,
}

HELP = {
    "image": "sample the joint image of (f, g) and classify it",
    "zeros": "lower-bound the distance of (f, g) from a common sphere zero",
    "curve": "trace a mixing curve between two points through the image plane",
    "copositive": "test whether f is (strictly) copositive with g",
    "shs-check": "test the strict-variant solvability-gap condition",
    "shs-xi": "search for a strict multiplier xi > 0",
    "hs-xi": "search for a non-strict multiplier xi >= 0",
    "nhs-xi": "search for a multiplier for a non-homogeneous pair",
    "lfhd": "verify Lyapunov derivative coverage for a switched system",
    "combo-synth": "synthesize a stabilizing convex combination (N = 2)",
    "combo-scan": "grid-search the simplex for stabilizing combinations",
    "simulate": "integrate the min-derivative switching law",
    "eigencheck": "eigenvalue test for a linear convex combination",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slemma",
        description="Copositivity certificates, image-set geometry, and "
                    "switched-system stabilization for generalized polynomials.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("problem", help="problem file (JSON)")
    common.add_argument("--samples", type=_positive(int), default=None,
                        help="sphere sample count (default per dimension)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="RNG seed for sampling")
    common.add_argument("--threshold", type=float, default=None,
                        help="decision threshold override")
    common.add_argument("--grid-step", type=_positive(float), default=None, dest="grid_step",
                        help="simplex grid step (combo-scan)")
    common.add_argument("--out-dir", default=".", dest="out_dir",
                        help="artifact output directory")
    common.add_argument("--format", choices=["json", "csv", "svg"],
                        default="json", help="extra artifact format")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=HELP[name])
        if name == "curve":
            p.add_argument("--z1", default=None, help="first anchor point (comma-separated)")
            p.add_argument("--z2", default=None, help="second anchor point (comma-separated)")
            p.add_argument("--steps", type=int, default=256)
        if name == "copositive":
            p.add_argument("--strict", action="store_true",
                           help="test strict copositivity")
        if name == "simulate":
            p.add_argument("--x0", default=None, help="initial state (comma-separated)")
            p.add_argument("--dt", type=_positive(float), default=1e-3)
            p.add_argument("--t-end", type=_positive(float), default=10.0, dest="t_end")
            p.add_argument("--dwell", type=_positive(float), default=None)
        if name == "eigencheck":
            p.add_argument("--lambdas", default=None,
                           help="combination weights (comma-separated)")
    return parser


# glibc's mallopt parameters and the values `_pin_malloc` gives them, and
# the free heap past which `main` returns the free pages after a command.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 1 << 20
TRIM_THRESHOLD = 32 << 20
RELEASE_THRESHOLD = 8 << 20


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]


@functools.cache
def _pin_malloc():
    """Fix glibc's mmap and trim thresholds for the rest of the process and
    return the function that `main` calls after each command (elsewhere
    than glibc, do nothing and return None).

    A block that free heap memory cannot hold grows the heap if it is
    smaller than the mmap threshold, and gets a mapping of its own,
    unmapped when freed, if it is not.  Left alone, glibc raises the
    threshold to the largest mapped block freed so far, so a process that
    runs one command after another soon grows its heap for arrays of
    several MiB too.  Fixed at 1 MiB (a 65,536 x 3 sample array is
    1.5 MiB), the heap grows for small blocks only; fixing the trim
    threshold at 32 MiB keeps the free top of the heap inside a command
    instead of returning it and faulting it in again.

    After a command that leaves more than `RELEASE_THRESHOLD` of the heap
    free, `malloc_trim(0)` returns its free pages.  Otherwise what the
    next command, or the caller, finds resident depends on the holes that
    the order of earlier blocks left: the `lift` job list of `bench/`, run
    in one process, peaked at 72.7-73.3 MB in some runs and 76.8-77.4 MB
    in others.  Its `nhs-xi` leaves 12-17 MiB free; the shipped n = 2
    commands leave 1-3 MiB, which the next command reuses without
    faulting it in again.
    """
    libc = ctypes.CDLL(None) if sys.platform == "linux" else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return None
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallinfo2, malloc_trim = getattr(libc, "mallinfo2", None), getattr(libc, "malloc_trim", None)
    if mallinfo2 is None or malloc_trim is None:
        return None
    mallinfo2.restype = _MallInfo2

    def release() -> None:
        if mallinfo2().fordblks > RELEASE_THRESHOLD:
            malloc_trim(0)

    return release


def main(argv=None) -> int:
    release = _pin_malloc()
    try:
        args = build_parser().parse_args(argv)
        _check_format(args)
        problem = load_problem(args.problem)
        return COMMANDS[args.command](args, problem)
    except (ProblemError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FloatingPointError as e:
        print(f"error: {e} (the values leave the float64 range)", file=sys.stderr)
        return 3
    except Exception as e:  # a bug, not a finding: keep exit 1 for negative answers
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    finally:
        if release is not None:
            release()


if __name__ == "__main__":
    sys.exit(main())
