"""``scripts/paired_bench.py`` on canned run results: no subprocess, no
timing.  The summary counts the runs of each side that reported
``correct: false`` or ``failed > 0``, prints each metric's bound and marks
a metric whose median got worse by more than bound x the parent's median;
the exit status is 1 if any run failed or any metric is marked."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import paired_bench  # noqa: E402

METRICS = [
    {"name": "run_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "better": "lower", "bound": 0.1},
]


def _result(run_s, correct=True, failed=0, peak_rss_mib=20.0):
    return {
        "correct": correct,
        "failed": failed,
        "attempted": 10,
        "metrics": {"run_s": {"value": run_s}, "peak_rss_mib": {"value": peak_rss_mib}},
    }


@pytest.fixture
def checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for d in (parent, change):
        d.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    return parent, change


def _main(monkeypatch, checkouts, results, pairs):
    """Run ``main`` with ``run`` answering from ``results[side]``, one result
    per call in order; the calls made, as (side, seed)."""
    parent, change = checkouts
    side = {parent: "parent", change: "change"}
    queues = {s: list(rs) for s, rs in results.items()}
    calls = []

    def canned(checkout, workload, seed, seconds):
        calls.append((side[checkout], seed))
        return queues[side[checkout]].pop(0)

    monkeypatch.setattr(paired_bench, "run", canned)
    argv = [str(parent), str(change), "--workload", "w", "--pairs", str(pairs)]
    return paired_bench.main(argv), calls


def test_clean_runs_exit_0(monkeypatch, checkouts, capsys):
    results = {"parent": [_result(0.10), _result(0.12)], "change": [_result(0.08), _result(0.09)]}
    code, calls = _main(monkeypatch, checkouts, results, 2)
    out = capsys.readouterr().out
    assert code == 0
    # pair k runs seed k on both sides, and the side that goes first flips
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    assert "run_s: median 0.1100 -> 0.0850 (-22.7 %)" in out
    assert "change better in 2/2 pairs (lower is better)" in out
    assert out.splitlines()[-1] == (
        "runs with correct: false or failed > 0: parent 0/2, change 0/2"
    )


@pytest.mark.parametrize(
    "bad_parent,bad_change",
    [
        ({"correct": False}, {}),
        ({}, {"failed": 3}),
        ({"failed": 1}, {"correct": False, "failed": 2}),
    ],
)
def test_failed_or_incorrect_runs_exit_1(monkeypatch, checkouts, capsys, bad_parent, bad_change):
    results = {
        "parent": [_result(0.10), _result(0.10, **bad_parent), _result(0.10)],
        "change": [_result(0.09, **bad_change), _result(0.09), _result(0.09, **bad_change)],
    }
    code, _ = _main(monkeypatch, checkouts, results, 3)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    parent_bad = 1 if bad_parent else 0
    change_bad = 2 if bad_change else 0
    assert lines[-1] == (
        f"runs with correct: false or failed > 0: parent {parent_bad}/3, change {change_bad}/3"
    )
    # each bad run is also named as its pair comes
    assert sum(" failed " in line and "correct=" in line for line in lines) == (
        parent_bad + change_bad
    )


def _metric_line(out, name):
    (line,) = [line for line in out.splitlines() if line.startswith(f"  {name}: ")]
    return line


@pytest.mark.parametrize(
    "change_run_s,marked",
    [(0.09, False), (0.12, False), (0.13, True), (0.20, True)],
)
def test_worse_beyond_bound_is_marked_and_exits_1(
    monkeypatch, checkouts, capsys, change_run_s, marked
):
    # the parent's median is 0.10 and run_s's bound 0.25: the change may be
    # up to 0.125 and is marked past it
    results = {
        "parent": [_result(0.10), _result(0.10), _result(0.10)],
        "change": [_result(change_run_s)] * 3,
    }
    code, _ = _main(monkeypatch, checkouts, results, 3)
    out = capsys.readouterr().out
    assert code == (1 if marked else 0)
    line = _metric_line(out, "run_s")
    assert "(lower is better), bound 0.25" in line
    assert line.endswith(", worse beyond bound") == marked
    assert _metric_line(out, "peak_rss_mib").endswith("(lower is better), bound 0.1")


@pytest.mark.parametrize("change_value,marked", [(95.0, False), (89.0, True), (120.0, False)])
def test_higher_is_better_is_marked_when_it_falls(
    monkeypatch, checkouts, capsys, change_value, marked
):
    # peak_rss_mib stands in for a metric where higher is better, bound 0.1
    parent, _ = checkouts
    metrics = [METRICS[0], {"name": "peak_rss_mib", "better": "higher", "bound": 0.1}]
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    results = {
        "parent": [_result(0.10, peak_rss_mib=100.0)] * 2,
        "change": [_result(0.10, peak_rss_mib=change_value)] * 2,
    }
    code, _ = _main(monkeypatch, checkouts, results, 2)
    line = _metric_line(capsys.readouterr().out, "peak_rss_mib")
    assert code == (1 if marked else 0)
    assert line.endswith(", worse beyond bound") == marked
