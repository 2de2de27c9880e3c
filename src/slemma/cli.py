"""Command-line front end.

Thirteen subcommands dispatch problem files to the analysis operations
and write deterministic artifacts: a JSON report always, plus CSV or SVG
data for the commands that have tabular or plottable output.  Each
command returns the verdict of its report and `main` maps it to the exit
code: 0 HOLDS, 1 FAILS (a valid mathematical answer such as "no
multiplier exists"), 3 INCONCLUSIVE (a certificate that failed its
independent re-check).  Exit 2 is a usage or parse error, and 3 also a
float64 overflow named by the stage it hit or an unexpected exception (a
bug, not a finding).

Every JSON report's `result` is the command's report dataclass written
field by field (enums by value, arrays as lists); the few keys a report
drops or adds are named in its command handler (see docs/schema.md).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from enum import Enum
from pathlib import Path

import numpy as np

from .homog_core import DEFAULT_SEED, TWO_PI, UsageError, Verdict
from .image_analysis import DegenerateImageError, SampledPair, mixing_curve
from .problems import Problem, ProblemError, load_problem
from .s_lemma import (
    MultiplierFailure,
    find_nhs_multiplier,
    find_nonstrict_multiplier,
    find_strict_multiplier,
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
    """`header` and `rows` comma-separated, a row's fields (Python floats
    and ints) as `%r`: the bytes `csv.writer` writes for them.  The rows
    are streamed, never joined into one string."""
    line = ",".join(["%r"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line.__mod__, rows))
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


def _write_report(args, problem: Problem, result, suffix: str = "") -> None:
    """The command's JSON report: its problem, flags and dilation, and `result`."""
    config = {"samples": args.samples, "seed": args.seed, "threshold": args.threshold,
              "grid_step": args.grid_step, "format": args.format,
              "dilation": problem.dilation.to_dict()}
    _write_json(_out_path(args, suffix, "json"), {
        "command": args.command, "problem": problem.path.name,
        "config": config, "result": result})


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


def _positive(kind, zero=False):
    """argparse type for a finite `kind` that is positive, or nonnegative
    with `zero` (a zero sample count or grid step would divide by zero in
    a command, an infinite time step overflow, a NaN threshold compare
    false everywhere, and a negative seed fail in NumPy's generator)."""
    def parse(text: str):
        value = kind(text)
        if not (0 <= value if zero else 0 < value) or not value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and {'nonnegative' if zero else 'positive'}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _candidate(problem: Problem):
    sys_name, system = problem.single_system()
    v_name, V = problem.first_lyapunov()
    cand = LfhdCandidate.build(V, system, problem.dilation)
    return sys_name, v_name, cand


# ----------------------------------------------------------------- commands


def cmd_image(args, problem: Problem) -> tuple[Verdict, str]:
    f, g = problem.pair()
    pair = SampledPair.draw(f, g, problem.dilation, count=args.samples, seed=args.seed)
    try:
        summary = pair.image()
    except DegenerateImageError as e:
        _write_report(args, problem, {"degenerate": str(e)})
        return Verdict.FAILS, f"image: degenerate ({e})"
    probe = pair.convexity_probe(summary)
    _write_report(args, problem, _image_fields(summary, convexity_violations=probe))
    if args.format == "csv":
        _write_csv(_out_path(args, "", "csv"), ["theta_or_index", "f", "g"],
                   ((float(r[0]), float(r[1]), float(r[2]))
                    for r in summary.scatter))
    if args.format == "svg":
        _write_svg(_out_path(args, "", "svg"), _svg_scatter(summary.scatter[:, 1:3]))
    return Verdict.HOLDS, (f"image: {summary.classification.value}, "
                           f"phi = {summary.phi / math.pi:.4f} pi, "
                           f"{len(probe)} convexity violation(s)")


def cmd_zeros(args, problem: Problem) -> tuple[Verdict, str]:
    f, g = problem.pair()
    threshold = 1e-9 if args.threshold is None else args.threshold
    zm = SampledPair.draw(f, g, problem.dilation, args.samples,
                          args.seed).zero_margin(threshold)
    _write_report(args, problem, zm)
    return zm.verdict, (f"zeros: margin = {zm.margin:.6g} "
                        f"({'common zero detected' if zm.common_zero else 'no common zero'})")


def cmd_curve(args, problem: Problem) -> tuple[Verdict, str]:
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
    _write_report(args, problem, result)
    if args.format == "csv":
        _write_csv(_out_path(args, "", "csv"), ["theta", "f", "g"],
                   ((float(t), float(p[0]), float(p[1]))
                    for t, p in zip(thetas, curve)))
    if args.format == "svg":
        _write_svg(_out_path(args, "", "svg"), _svg_polyline(curve))
    return Verdict.HOLDS, f"curve: {args.steps} steps through the image plane"


def cmd_copositive(args, problem: Problem) -> tuple[Verdict, str]:
    f, g = problem.pair()
    rep = SampledPair.draw(f, g, problem.dilation, args.samples,
                           args.seed).is_copositive(args.strict)
    _write_report(args, problem, rep, "_strict" if args.strict else "")
    kind = "strictly copositive" if args.strict else "copositive"
    line = f"copositive: f is {'' if rep.holds else 'NOT '}{kind} with g"
    # a strict test fails above its threshold only on a common zero
    if not rep.holds and (rep.min_value is None or rep.min_value > rep.threshold):
        line += " (common zero detected)"
    return rep.verdict, line


def cmd_shs_check(args, problem: Problem) -> tuple[Verdict, str]:
    f, g = problem.pair()
    rep = SampledPair.draw(f, g, problem.dilation, args.samples,
                           args.seed).shs_condition()
    _write_report(args, problem, _fields(rep, image=_image_fields(rep.image)))
    return rep.verdict, (f"shs-check: {'holds' if rep.holds else 'fails'} "
                         f"(symmetrized gap {rep.symmetrized_gap:.6f} rad)")


def cmd_xi(args, problem: Problem) -> tuple[Verdict, str]:
    """shs-xi, hs-xi and nhs-xi: the multiplier search named by the command."""
    f, g = problem.pair()
    if args.command == "nhs-xi":
        res = find_nhs_multiplier(f, g, count=args.samples, seed=args.seed)
    else:
        search = (find_strict_multiplier if args.command == "shs-xi"
                  else find_nonstrict_multiplier)
        res = search(f, g, problem.dilation, count=args.samples, seed=args.seed)
    _write_report(args, problem, res)
    if isinstance(res, MultiplierFailure):
        return res.verdict, f"{args.command}: failed ({res.reason.value})"
    if args.command == "nhs-xi":
        return res.verdict, (f"nhs-xi: xi = {res.xi:.9g}, "
                             f"t=1 margin = {res.details['t1_margin']:.6g}")
    return res.verdict, f"{args.command}: xi = {res.xi:.9g}, margin = {res.margin:.6g}"


def cmd_lfhd(args, problem: Problem) -> tuple[Verdict, str]:
    sys_name, v_name, cand = _candidate(problem)
    rep = check_lfhd(cand, count=args.samples, seed=args.seed,
                     threshold=args.threshold)
    result = _fields(rep, drop=("uncovered_indices", "argmin", "min_values", "params"),
                     uncovered_count=len(rep.uncovered_indices), system=sys_name,
                     lyapunov=v_name, common_degree=cand.common_degree)
    _write_report(args, problem, result)
    if args.format == "csv":
        _write_csv(_out_path(args, "_regions", "csv"),
                   ["theta_or_index", "argmin_subsystem", "min_derivative"],
                   rep.region_rows())
    if args.format == "svg" and problem.n == 2:
        X = np.column_stack([np.cos(rep.params), np.sin(rep.params)])
        colors = [PALETTE[(a - 1) % len(PALETTE)] for a in rep.argmin]
        _write_svg(_out_path(args, "_regions", "svg"), _svg_scatter(X, colors))
    return rep.verdict, f"lfhd: {rep.status} (uncovered samples: {len(rep.uncovered_indices)})"


def cmd_combo_synth(args, problem: Problem) -> tuple[Verdict, str]:
    sys_name, v_name, cand = _candidate(problem)
    res = synthesize_combination_n2(cand, count=args.samples, seed=args.seed)
    if isinstance(res, MultiplierFailure):
        line = f"combo-synth: no certificate ({res.reason.value})"
    else:
        lam = res.lambdas
        line = (f"combo-synth: lambda = ({lam[0]:.6f}, {lam[1]:.6f}), "
                f"max derivative {res.max_derivative:.6g}")
    _write_report(args, problem, res)
    return res.verdict, line


def cmd_combo_scan(args, problem: Problem) -> tuple[Verdict, str]:
    sys_name, v_name, cand = _candidate(problem)
    step = 0.01 if args.grid_step is None else args.grid_step
    scan = scan_combinations(cand, grid_step=step,
                             count=args.samples, seed=args.seed,
                             threshold=args.threshold)
    result = _fields(scan, feasible=scan.feasible[:200], feasible_count=len(scan.feasible))
    _write_report(args, problem, result)
    line = f"combo-scan: {len(scan.feasible)} feasible points"
    if scan.interval is not None:
        line += f", lambda_1 interval [{scan.interval[0]:.4f}, {scan.interval[1]:.4f}]"
    return scan.verdict, line


def cmd_simulate(args, problem: Problem) -> tuple[Verdict, str]:
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
        _write_report(args, problem, {"diverged": str(e)})
        return Verdict.FAILS, f"simulate: diverged ({e})"
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
    _write_report(args, problem, result)
    if args.format == "csv":
        header = ["t"] + [f"x_{i + 1}" for i in range(problem.n)] + ["sigma", "V"]
        _write_csv(_out_path(args, "_trajectory", "csv"), header, traj.rows())
    if args.format == "svg":
        pts = traj.x[:, :2] if problem.n >= 2 else np.column_stack([traj.t, traj.x[:, 0]])
        _write_svg(_out_path(args, "_trajectory", "svg"), _svg_polyline(pts))
    # HOLDS only says that the run did not diverge: V is not checked along it
    return Verdict.HOLDS, (f"simulate: V {traj.v[0]:.6g} -> {traj.v[-1]:.6g} "
                           f"over {traj.t[-1]:.3g}s, {len(traj.switch_times)} switches")


def cmd_eigencheck(args, problem: Problem) -> tuple[Verdict, str]:
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
    _write_report(args, problem, result)
    return (Verdict.HOLDS if val < 0 else Verdict.FAILS,
            f"eigencheck: max eigenvalue of sym(A(lambda)) = {val:.6g}")


# The one map from a command's verdict to its exit code.
EXIT_CODE = {Verdict.HOLDS: 0, Verdict.FAILS: 1, Verdict.INCONCLUSIVE: 3}

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
    "zeros": "measure how far (f, g) stays from a common zero, exactly for n <= 2",
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


@functools.cache
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
    common.add_argument("--seed", type=_positive(int, zero=True), default=DEFAULT_SEED,
                        help="RNG seed for sampling")
    common.add_argument("--threshold", type=_positive(float, zero=True), default=None,
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


def main(argv=None) -> int:
    """Run one subcommand on `argv` (default `sys.argv[1:]`), print its
    summary line and return the exit code of its verdict (`EXIT_CODE`): 0
    HOLDS, 1 FAILS, 3 INCONCLUSIVE; 2 on a usage or parse error, 3 on an
    overflow or a bug.  A usage error that argparse finds raises
    `SystemExit(2)` instead of returning 2 (`--help`: `SystemExit(0)`).

    It may be called repeatedly in one process.  Its only per-process
    state, the parser (`build_parser`), is built on the first call and
    depends on no `argv`.
    """
    try:
        args = build_parser().parse_args(argv)
        _check_format(args)
        verdict, line = COMMANDS[args.command](args, load_problem(args.problem))
        print(line)
        return EXIT_CODE[verdict]
    except (ProblemError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FloatingPointError as e:
        print(f"error: {e} (the values leave the float64 range)", file=sys.stderr)
        return 3
    except Exception as e:  # a bug, not a finding: keep exit 1 for negative answers
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
