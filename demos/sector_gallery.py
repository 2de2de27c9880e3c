"""Walk through the image-sector gallery.

Four even pairs whose joint images sweep the qualitative range: a half
plane, a sector just above pi, a sector approaching 2 pi, and the full
plane.  For each pair the script samples the image, prints the sector
angle, and shows the confirmed direction gaps.
"""

from pathlib import Path

import numpy as np

from slemma import SampledPair, load_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

GALLERY = [
    "sector_quartic_pi",
    "sector_quartic_wide",
    "sector_sextic_wide",
    "sector_sextic_full",
]


def main() -> None:
    for name in GALLERY:
        prob = load_problem(PROBLEMS / f"{name}.json")
        f, g = prob.pair()
        s = SampledPair.draw(f, g, prob.dilation).image()
        print(f"{name}:")
        print(f"  classification   {s.classification.value}")
        print(f"  sector angle     {s.phi / np.pi:.6f} pi")
        print(f"  largest gap      {s.largest_gap / np.pi:.6f} pi")
        if s.gaps:
            arcs = ", ".join(f"[{a:+.4f}, {b:+.4f}]" for a, b in s.gaps)
            print(f"  confirmed gaps   {arcs}")
        if s.refinement_evals:
            print(f"  refinement evals {s.refinement_evals}")
        print()


if __name__ == "__main__":
    main()
