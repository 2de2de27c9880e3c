"""Strict multiplier search, step by step.

Loads the sextic pair tied to the switched benchmark system, checks the
two hypotheses (strict copositivity and the sector condition on the
joint image), then runs the full search and prints the certificate with
every verification check it carries.
"""

from pathlib import Path

import numpy as np

from slemma import SampledPair, find_strict_multiplier, load_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def main() -> None:
    prob = load_problem(PROBLEMS / "switch_sextic.json")
    f, g = prob.pair()
    d = prob.dilation

    # one sample set carries every hypothesis check
    pair = SampledPair.draw(f, g, d)

    cop = pair.is_copositive(strict=True)
    print(f"strict copositivity: {cop.holds} "
          f"(min f over sampled g >= 0 region: {cop.min_value:.6f})")

    shs = pair.shs_condition()
    print(f"sector condition: {shs.holds} "
          f"(symmetrized uncovered arc: {shs.symmetrized_gap:.6f} rad)")

    # a hand-picked xi for comparison before the search
    vals = pair.F - 2.0 * pair.G
    m2, where = np.min(vals), pair.X[np.argmin(vals)]
    print(f"margin of f - 2 g on the sphere: {m2:.6f} at ({where[0]:+.4f}, {where[1]:+.4f})")

    cert = find_strict_multiplier(f, g, d)
    print(f"\ncertified xi = {cert.xi:.9f}")
    print(f"fresh-sample margin = {cert.margin:.9f}")
    for check in cert.checks:
        print(f"  {check['check']:<22} ok={check['ok']}")


if __name__ == "__main__":
    main()
