#!/usr/bin/env python3
"""Alternating paired runs of the benchmark in two checkouts.

Runs ``perfbench/run.py --trace 0`` on one workload in a parent checkout and
in a changed one, pair by pair, pair k on seed k for both sides.  Which side
runs first flips from one pair to the next, as the CPU's speed drifts from
run to run.  Every pair's end-to-end metrics are printed as they come, then
for each metric the medians of both sides, the parent's interquartile
spread, the number of pairs the change wins and the metric's bound, and
last how many runs of each side reported ``correct: false`` or
``failed > 0``.  A metric is marked "worse beyond bound" when the change's
median is worse than the parent's by more than bound x the parent's
median, as ``perfbench/README.md`` ("Steadiness and bounds") reads the
bounds.  The exit status is 1 if any run failed or any metric is marked.
The metrics, which way is better and the bounds are read from the
parent's ``BENCHMARK.json``; nothing under either ``perfbench/`` is edited.

    python3 scripts/paired_bench.py PARENT_DIR CHANGE_DIR \\
        --workload orbits-large --pairs 10 --seconds 25
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result object that one run prints on its last line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    values = {s: {m: [] for m in better} for s in sides}
    bad = dict.fromkeys(sides, 0)
    for k in range(args.pairs):
        seed = k + 1
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        results = {s: run(sides[s], args.workload, seed, args.seconds) for s in order}
        for s, result in results.items():
            if not result["correct"] or result["failed"]:
                bad[s] += 1
                print(f"pair {k + 1}: {s} failed {result['failed']} "
                      f"of {result['attempted']}, correct={result['correct']}")
            for m in better:
                values[s][m].append(result["metrics"][m]["value"])
        cells = [f"{m} {values['parent'][m][-1]:.4f}/{values['change'][m][-1]:.4f}"
                 for m in better]
        print(f"pair {k + 1} (seed {seed}, {order[0]} first): " + ", ".join(cells),
              flush=True)

    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g}-s runs,"
          " parent/change:")
    marked = 0
    for m, way in better.items():
        old, new = values["parent"][m], values["change"][m]
        wins = sum((b < a) if way == "lower" else (b > a) for a, b in zip(old, new))
        med_old, med_new = statistics.median(old), statistics.median(new)
        rel = (med_new - med_old) / med_old * 100 if med_old else 0.0
        worse = med_new - med_old if way == "lower" else med_old - med_new
        beyond = worse > bound[m] * med_old
        marked += beyond
        print(f"  {m}: median {med_old:.4f} -> {med_new:.4f} ({rel:+.1f} %), "
              f"parent quartile spread {quartile_spread(old):.4f}, "
              f"change better in {wins}/{len(old)} pairs ({way} is better), "
              f"bound {bound[m]:g}" + (", worse beyond bound" if beyond else ""))
    print(f"runs with correct: false or failed > 0: parent {bad['parent']}/"
          f"{args.pairs}, change {bad['change']}/{args.pairs}")
    return 1 if marked or any(bad.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
