"""Multiplier search for an affine sextic pair via homogenization.

The pair here is a homogeneous sextic shifted by constants, so it cannot
be handled on the sphere directly.  The search lifts both polynomials to
degree-6 forms in three variables with an auxiliary variable t, runs the
non-strict search on the lift, and re-verifies the multiplier on the
t = 1 slice.  The script prints each stage and closes with a brute-force
box check of the certified inequality.
"""

from pathlib import Path

import numpy as np

from slemma import find_nhs_multiplier, load_problem
from slemma.stp_poly import homogenize

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def main() -> None:
    prob = load_problem(PROBLEMS / "affine_sextic_shift.json")
    f, g = prob.pair()
    print(f"f(1, 1) = {f([1.0, 1.0]):+.4f}, g(1, 1) = {g([1.0, 1.0]):+.4f}")

    lift_f = homogenize(f, 6)
    print(f"lifted to {lift_f.n} variables, degree 6 forms")
    print(f"f(1, 1, 1) = {lift_f([1.0, 1.0, 1.0]):+.4f} (same value, t = 1)")

    res = find_nhs_multiplier(f, g)
    print(f"\ncertified xi = {res.xi:.9f}")
    print(f"lift margin on the sphere = {res.margin:.6f}")
    print(f"t = 1 slice margin = {res.details['t1_margin']:.6f}")

    # independent check: f - xi*g >= 0 on a random box around the origin
    rng = np.random.default_rng(8)
    X = rng.uniform(-10.0, 10.0, size=(20000, 2))
    vals = f.evaluate(X) - res.xi * g.evaluate(X)
    print(f"min of f - xi g over 20000 box samples: {vals.min():.6f}")


if __name__ == "__main__":
    main()
