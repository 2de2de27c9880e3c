"""Stabilize a switched pair of cubic systems three ways.

Starting from one Lyapunov candidate the script runs the whole chain:
coverage of the sphere by negative subsystem derivatives, a simplex scan
for stabilizing convex combinations, closed-form synthesis of one
combination from the strict multiplier, and finally a min-derivative
switching simulation whose V values decay along the trajectory.
"""

import argparse
from pathlib import Path

from slemma import (
    LfhdCandidate,
    check_lfhd,
    load_problem,
    scan_combinations,
    simulate_min_switching,
    synthesize_combination_n2,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--problem", default="switch_sextic",
                    choices=["switch_sextic", "switch_fractional"])
    ap.add_argument("--t-end", type=float, default=5.0)
    args = ap.parse_args()

    prob = load_problem(PROBLEMS / f"{args.problem}.json")
    _, system = prob.single_system()
    _, V = prob.first_lyapunov()
    cand = LfhdCandidate.build(V, system, prob.dilation)

    rep = check_lfhd(cand)
    print(f"coverage: {rep.status} (margin {rep.coverage_margin:.6f})")

    scan = scan_combinations(cand, grid_step=0.005)
    lo, hi = scan.interval
    print(f"scan: {len(scan.feasible)} feasible combinations, "
          f"lambda_1 in [{lo:.3f}, {hi:.3f}]")

    synth = synthesize_combination_n2(cand)
    lam = synth.lambdas
    print(f"synthesis: lambda = ({lam[0]:.6f}, {lam[1]:.6f}), "
          f"worst derivative {synth.max_derivative:.6f}")

    traj = simulate_min_switching(cand, [1.0, -0.7], t_end=args.t_end)
    print(f"simulation: V {traj.v[0]:.6f} -> {traj.v[-1]:.6g} "
          f"with {len(traj.switch_times)} switches")


if __name__ == "__main__":
    main()
