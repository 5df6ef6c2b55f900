"""Where the brute-force oracle's own grid error exceeds the 1e-3 threshold.

    python3 bench/oracle_grid_scan.py --shapes 1200 --seed 7

Run from the root of a checkout.  Draws seeded bite shapes near the
deep-bite boundary L^2 = r^2 + r_w^2 (three in four on the partial side,
|L/r - sqrt(1 + (r_w/r)^2)| log-uniform from 1e-4 to the edge of the class)
with seeded rings, and compares ``oracle_torque`` with the benchmark's exact
ray reference: on the 400^2 grid at alpha = 1e-3, as ``oracle-check`` runs
it, and on the 800^2 grid at alpha in [0.02, 0.2], as ``torque-validate``
runs it.  Prints the largest deviation by side and distance, then every
input above the threshold.  ``workloads.ORACLE_GRID_BAND`` and
``ORACLE_GRID_CAP`` come from this scan.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from wiretwist import GridSpec, SectionGeometry, WireRing, oracle_torque  # noqa: E402

import inputs  # noqa: E402
from reference import torque_ref  # noqa: E402

THRESHOLD = 1e-3
BINS = (0.0, 1e-3, 3e-3, 1e-2, 2e-2, 4e-2, math.inf)


def scan(n_shapes: int, seed: int) -> list[dict]:
    rng = random.Random(f"oracle-grid-scan:{seed}")
    rows = []
    while len(rows) < n_shapes:
        rw = inputs.RW_MIN * (inputs.RW_MAX / inputs.RW_MIN) ** rng.random()
        xd = inputs.x_deep(rw)
        partial = rng.random() < 0.75
        edge = 1.0 - xd if partial else xd - inputs.X_MIN
        d = 10.0 ** rng.uniform(-4.0, math.log10(edge))
        x = xd + d if partial else xd - d
        gamma = rng.uniform(0.0, 2.0 * math.pi)
        ring = inputs.random_ring(rng)
        alpha = rng.uniform(0.02, 0.2)
        L = rw + x
        wire = WireRing(ring.R, ring.Z, ring.E, SectionGeometry.from_ratios(rw, L, gamma, r=ring.r))
        exact, _ = torque_ref(ring.R, ring.Z, ring.E, [1e-3, alpha], ring.r, rw * ring.r, L * ring.r, gamma)
        dev400 = abs(oracle_torque(wire, 1e-3, GridSpec(400, 400)) - exact[0]) / exact[0]
        dev800 = abs(oracle_torque(wire, alpha, GridSpec(800, 800)) - exact[1]) / exact[1]
        shape = inputs.Shape.bite(rw, L, gamma)
        rows.append({"input": f"{shape.describe()} {ring.describe()} alpha_max={alpha:.6g}",
                     "d": d if partial else -d, "dev400": dev400, "dev800": dev800})
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--shapes", type=int, default=1200)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    rows = scan(args.shapes, args.seed)
    print("| side | distance from the boundary | shapes | largest deviation, 400^2 | above 1e-3 | largest deviation, 800^2 |")
    print("| --- | --- | --- | --- | --- | --- |")
    for side, sign in (("partial", 1), ("deep", -1)):
        for lo, hi in zip(BINS, BINS[1:]):
            sel = [r for r in rows if lo <= sign * r["d"] < hi]
            if sel:
                print(f"| {side} | [{lo:g}, {hi:g}) | {len(sel)} | {max(r['dev400'] for r in sel):.3g} | "
                      f"{sum(r['dev400'] > THRESHOLD for r in sel)} | {max(r['dev800'] for r in sel):.3g} |")
    print()
    for r in sorted(rows, key=lambda r: -r["dev400"]):
        if r["dev400"] > THRESHOLD or r["dev800"] > THRESHOLD:
            print(f"- `{r['input']}`: L/r off the boundary by {r['d']:+.3g}; "
                  f"deviation {r['dev400']:.3g} (400^2, alpha 1e-3), {r['dev800']:.3g} (800^2, alpha_max)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
