#!/usr/bin/env python3
"""Per-layer counts of one traced benchmark run in two checkouts, compared.

Runs ``perfbench/run.py --trace 1`` once in a parent checkout and once in a
changed one, on the same workload, seed and length, and prints every
per-layer metric whose unit is not ``s`` (counts, bytes, ratios) and whose
value differs between the two, with both values; a metric that only one
side reports differs.  Times are left out: they differ from run to run.
The exit status is 1 if any such metric differs or either run exits
non-zero.

A traced run rewrites ``perfbench/out/trace-<workload>-<seed>.json`` in its
checkout, so point both arguments at ``git archive`` copies, not at a
working tree.

    python3 scripts/trace_counters.py PARENT_DIR CHANGE_DIR \\
        --workload orbits-large --seed 1 --seconds 25
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from paired_bench import run


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args(argv)

    old = run(args.parent, args.workload, args.seed, args.seconds, trace=1)["metrics"]
    new = run(args.change, args.workload, args.seed, args.seconds, trace=1)["metrics"]
    units = {m: v["unit"] for side in (old, new) for m, v in side.items()}
    compared = [m for m, unit in units.items() if unit != "s"]
    value = {m: [side[m]["value"] if m in side else "missing" for side in (old, new)]
             for m in compared}
    differing = [m for m in compared if value[m][0] != value[m][1]]
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g}-s traced runs,"
          f" parent/change: {len(differing)} of {len(compared)} per-layer"
          " metrics not in s differ")
    for m in differing:
        print(f"  {m}: {value[m][0]} -> {value[m][1]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
