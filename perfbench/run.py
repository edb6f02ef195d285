"""Benchmark for the korbits command line, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One process, one thread, closed loop: each query is ``korbits.cli.main``
with stdout captured, the next one starting when the last has returned.
The workload's round (see ``workloads.py``) is repeated whole while
another round still fits in ``--seconds``; timings are medians over
rounds.  After the timed region every distinct output is checked by
``checks.py``; a query that fails a check or raises counts as failed.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
the first half of the time runs untraced rounds and the rest traced ones,
and the per-layer metrics are reported; the spans of the first traced
round are written to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the times
are scaled to a fixed CPU speed (see ``speed.py``) and the line before
the result gives ``setup_s`` and ``run_s`` in wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads  # noqa: E402
from checks import Checker, Instance  # noqa: E402
from speed import Clock  # noqa: E402
from tracer import LAYERS, PER_LAYER_METRICS, Tracer  # noqa: E402

#: Set-ups timed before each round of an untraced run.
SETUPS_PER_ROUND = 5


def load_package():
    """Import korbits from this checkout, dropping any earlier import so
    that each set-up pays for the import again."""
    for name in [m for m in sys.modules if m == "korbits" or m.startswith("korbits.")]:
        del sys.modules[name]
    import korbits.catalog
    import korbits.cli

    return korbits.cli, korbits.catalog


def setup(workload: str, seed: int):
    """Import the package, build the round and a spec for every instance."""
    cli, catalog = load_package()
    queries = workloads.make_round(workload, seed)
    specs = {
        q.instance: catalog.build(q.family, *q.params)
        for q in queries
        if q.expect != workloads.EXIT_USAGE
    }
    return cli, catalog, queries, specs


def timed_setups(workload: str, seed: int, clock: Clock, times: list[tuple[float, float]]):
    """Set up ``SETUPS_PER_ROUND`` times, each from a collected heap,
    appending the (wall, scaled) seconds of each to ``times`` (see
    ``speed.py``); returns the last set-up."""
    for _ in range(SETUPS_PER_ROUND):
        gc.collect()
        start = time.perf_counter()
        state = setup(workload, seed)
        times.append(clock.times(start, time.perf_counter()))
    return state


def run_query(cli, query) -> tuple[object, str, str, float, float]:
    """(status, stdout, stderr, start, end) of one query."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(query.argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a crash is one failed operation, not the end of the run
        status = f"{type(exc).__name__}: {exc}"
    return status, out.getvalue(), err.getvalue(), start, time.perf_counter()


def run_rounds(cli, queries, budget: float, outcomes: dict, tracer=None, prepare=None, clock=None) -> list[dict]:
    """Whole rounds while another one fits in ``budget`` seconds (at least
    one), each query from a collected heap.  ``prepare``, if given, runs
    between rounds, untimed, and returns the ``cli`` module for the next
    round.  With a ``clock`` the latencies are scaled (see ``speed.py``)
    and their wall times kept in ``walls``.  Outcomes are tallied by
    (argv, status, stdout, stderr)."""
    rounds = []
    begin = time.perf_counter()
    while True:
        if rounds and prepare is not None:
            cli = prepare()
        if tracer is not None:
            tracer.reset()
        latencies, walls = [], []
        start = time.perf_counter()
        for q in queries:
            gc.collect()
            status, out, err, q_start, q_end = run_query(cli, q)
            q_wall, q_scaled = clock.times(q_start, q_end) if clock else (q_end - q_start,) * 2
            latencies.append(q_scaled)
            walls.append(q_wall)
            key = (q, status, out, err)
            outcomes[key] = outcomes.get(key, 0) + 1
            if tracer is not None:
                tracer.counts["cli.output_bytes"] += len(out.encode())
        wall = time.perf_counter() - start
        record = {"wall": wall, "latencies": latencies, "walls": walls}
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
            record["root"] = tracer.root_time
            record["spans"] = tracer.spans
            record["start"] = start
        rounds.append(record)
        if time.perf_counter() - begin + wall > budget:
            return rounds


def latency_metrics(rounds: list[dict]) -> tuple[float, float]:
    """p50 and p95 over the round's queries of each query's median latency."""
    per_query = [statistics.median(lat) for lat in zip(*(r["latencies"] for r in rounds))]
    if len(per_query) == 1:
        return per_query[0] * 1e3, per_query[0] * 1e3
    p95 = statistics.quantiles(per_query, n=100, method="inclusive")[94]
    return statistics.median(per_query) * 1e3, p95 * 1e3


def check_outcomes(checker: Checker, outcomes: dict) -> tuple[int, int, list[str]]:
    """(failed, wrong, problems): failed counts every query that raised or
    failed a check, wrong those that completed with wrong output."""
    failed = wrong = 0
    problems = []
    for (q, status, out, err), times in outcomes.items():
        if not isinstance(status, int):
            found = [f"raised {status}"]
        else:
            found = checker.check(q, status, out, err)
            if found:
                wrong += times
        if found:
            failed += times
            problems.append(f"{' '.join(q.argv)}: {'; '.join(found)}")
    return failed, wrong, problems


def check_accounting(record: dict) -> None:
    """The spans of a traced round must account for the time the
    benchmark measured around each query on its own clock: one root span
    per query, opened by ``cli.main``, lying inside that query's measured
    latency and covering at least nine tenths of it."""
    roots = [(layer, name, end - start) for layer, name, start, end, parent in record["spans"] if parent == -1]
    if len(roots) != len(record["latencies"]):
        raise RuntimeError(f"{len(roots)} root spans for {len(record['latencies'])} queries")
    for (layer, name, span), latency in zip(roots, record["latencies"]):
        if (layer, name) != ("cli", "main"):
            raise RuntimeError(f"a query's root span is {layer}.{name}, not cli.main")
        if span > latency:
            raise RuntimeError(f"a cli.main span of {span} s is longer than its query's {latency} s")
    measured = sum(record["latencies"])
    if record["root"] < 0.9 * measured:
        raise RuntimeError(f"spans cover {record['root']} s of the {measured} s measured per query")


def traced_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    for r in traced:
        check_accounting(r)
    first = traced[0]["layers"]
    out = {}
    for key, unit in PER_LAYER_METRICS:
        if key.endswith(".self_s") and key != "bench.self_s":
            out[key] = statistics.median(r["layers"][key] for r in traced)
        elif key in first:
            out[key] = first[key]
    out["bench.self_s"] = statistics.median(r["wall"] - r["root"] for r in traced)
    out["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - statistics.median(
        r["wall"] for r in untraced
    )
    return out


def write_spans(path: Path, workload: str, seed: int, record: dict) -> None:
    t0 = record["start"]
    spans = [
        [layer, name, round((start - t0) * 1e9), round((end - t0) * 1e9), parent]
        for layer, name, start, end, parent in record["spans"]
    ]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "unit": "ns", "spans": spans}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "korbits" / "__init__.py").is_file():
        print(f"error: no korbits package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    found = importlib.util.find_spec("korbits")
    if not Path(found.origin).resolve().is_relative_to(SRC):
        print(f"error: korbits would be imported from {found.origin}", file=sys.stderr)
        return 2

    outcomes: dict = {}
    if args.trace:
        cli, catalog, queries, specs = setup(args.workload, args.seed)
        untraced = run_rounds(cli, queries, args.seconds / 2, outcomes)
        modules = {layer: sys.modules[f"korbits.{layer}"] for layer in LAYERS}
        tracer = Tracer(modules)
        tracer.install()
        try:
            remaining = args.seconds - sum(r["wall"] for r in untraced)
            traced = run_rounds(cli, queries, remaining, outcomes, tracer)
        finally:
            tracer.uninstall()
        metrics = traced_metrics(untraced, traced)
        write_spans(HERE / "out" / f"trace-{args.workload}-{args.seed}.json", args.workload, args.seed, traced[0])
        units = dict(PER_LAYER_METRICS)
    else:
        setup_times: list[tuple[float, float]] = []
        with Clock() as clock:
            cli, catalog, queries, specs = timed_setups(args.workload, args.seed, clock, setup_times)

            # Set-ups are spread over the run, so that their median is
            # taken over the same stretch of time as that of the rounds.
            def prepare():
                return timed_setups(args.workload, args.seed, clock, setup_times)[0]

            rounds = run_rounds(cli, queries, args.seconds, outcomes, prepare=prepare, clock=clock)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        p50, p95 = latency_metrics(rounds)
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setup_times),
            "run_s": statistics.median(sum(r["latencies"]) for r in rounds),
            "peak_rss_mib": peak_rss_mib,
            "query_p50_ms": p50,
            "query_p95_ms": p95,
        }
        print(
            f"wall time: setup_s {statistics.median(wall for wall, _ in setup_times):.6g} s,"
            f" run_s {statistics.median(sum(r['walls']) for r in rounds):.6g} s"
        )
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB", "query_p50_ms": "ms", "query_p95_ms": "ms"}

    instances = {key: Instance.from_spec(spec, catalog.GBL) for key, spec in specs.items()}
    checker = Checker(instances, SRC / "korbits" / "schemas" / "cli_output.schema.json")
    failed, wrong, problems = check_outcomes(checker, outcomes)
    for line in problems[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = sum(outcomes.values())
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
