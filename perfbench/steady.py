"""Run workloads repeatedly and report how steady each metric is.

    python3 perfbench/steady.py                       # every workload, 10 seeds
    python3 perfbench/steady.py --runs 1              # one run of each workload
    python3 perfbench/steady.py --workloads cli-mix --runs 5
    python3 perfbench/steady.py --trace 1 --seeds 7,7 # per-layer, same seed twice

Runs ``run.py`` one process at a time, as the benchmark is meant to run,
with the run length from ``BENCHMARK.json``.  For each metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``), the
spread (q3 - q1) / median and, for end-to-end metrics, the bound: a spread
under a third of the bound reads ``ok``, under the bound ``wide``, above
it ``TOO WIDE``.  For traced runs it reports whether every count repeated
exactly.  Attempted and failed operations are printed per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    if done.stderr.strip():
        print(done.stderr.rstrip(), file=sys.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", help="comma-separated seeds (default 1..runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else list(range(1, args.runs + 1))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            print(f"  {workload} seed {seed}: done", file=sys.stderr, flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        attempted = [r["attempted"] for r in results]
        failed = [r["failed"] for r in results]
        print(
            f"\n{workload}: {len(results)} runs, attempted {min(attempted)}-{max(attempted)}, "
            f"failed {min(failed)}-{max(failed)} (share {shares}), "
            f"correct {all(r['correct'] for r in results)}"
        )
        print(f"  {'metric':28} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  bound")
        for metric in results[0]["metrics"]:
            unit = results[0]["metrics"][metric]["unit"]
            values = [r["metrics"][metric]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            verdict = ""
            if metric in bounds:
                bound = bounds[metric]
                verdict = f"{bound:.2f} " + (
                    "ok" if rel < bound / 3 else "wide" if rel <= bound else "TOO WIDE"
                )
            elif args.trace and len(set(values)) > 1 and unit != "s":
                verdict = "differs between runs"
            print(f"  {metric:28} {unit:6} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:7.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
