"""``scripts/trace_counters.py`` on canned run results: no subprocess, no
timing.  Each side runs once, on the same workload, seed and length; every
per-layer metric not in seconds whose value differs is printed, a metric
only one side reports included, and the exit status is 1 if any is."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import trace_counters  # noqa: E402


def _result(springer_values=1660, self_s=0.01, ratio=0.25, extra=None):
    metrics = {
        "catalog.self_s": {"value": self_s, "unit": "s"},
        "catalog.springer_values": {"value": springer_values, "unit": "count"},
        "twisted.useful_ratio": {"value": ratio, "unit": "ratio"},
        "cli.output_bytes": {"value": 5000, "unit": "bytes"},
        **(extra or {}),
    }
    return {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}


def _main(monkeypatch, parent, change):
    """Run ``main`` with ``run`` answering ``parent`` or ``change`` by
    checkout; the calls made, as (checkout, workload, seed, seconds, trace)."""
    calls = []

    def canned(checkout, workload, seed, seconds, trace):
        calls.append((str(checkout), workload, seed, seconds, trace))
        return parent if str(checkout) == "p" else change

    monkeypatch.setattr(trace_counters, "run", canned)
    argv = ["p", "c", "--workload", "w", "--seed", "3", "--seconds", "2"]
    return trace_counters.main(argv), calls


def test_equal_counts_exit_0_whatever_the_times(monkeypatch, capsys):
    code, calls = _main(monkeypatch, _result(self_s=0.01), _result(self_s=0.02))
    assert code == 0
    assert calls == [("p", "w", 3, 2.0, 1), ("c", "w", 3, 2.0, 1)]
    assert capsys.readouterr().out.splitlines() == [
        "w, seed 3, 2-s traced runs, parent/change:"
        " 0 of 3 per-layer metrics not in s differ"
    ]


def test_a_differing_count_or_ratio_is_printed_and_exits_1(monkeypatch, capsys):
    code, _ = _main(monkeypatch, _result(), _result(springer_values=0, ratio=0.5))
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines == [
        "w, seed 3, 2-s traced runs, parent/change:"
        " 2 of 3 per-layer metrics not in s differ",
        "  catalog.springer_values: 1660 -> 0",
        "  twisted.useful_ratio: 0.25 -> 0.5",
    ]


def test_a_metric_on_one_side_only_differs(monkeypatch, capsys):
    extra = {"twisted.new_count": {"value": 7, "unit": "count"}}
    code, _ = _main(monkeypatch, _result(), _result(extra=extra))
    assert code == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  twisted.new_count: missing -> 7"
    ]
