"""``scripts/import_cost.py`` splits one fresh import into its parts."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "import_cost.py"


def test_one_import_splits_into_counted_parts():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--imports", "1"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.splitlines()[0]
    total = float(re.match(r"import 1: ([\d.]+) ms = ", line).group(1))
    parts = {
        name: (float(ms), int(count), unit)
        for name, ms, count, unit in re.findall(r"(\w+) ([\d.]+) ms \((\d+) (\w+)\)", line)
    }
    rest = float(re.search(r"\+ rest (-?[\d.]+) ms$", line).group(1))
    assert {name: part[1:] for name, part in parts.items()} == {
        "compile": (8, "modules"),
        "dataclasses": (3, "classes"),
        "namedtuples": (7, "classes"),
    }
    # each printed figure is rounded to 0.1 ms
    assert rest >= 0
    assert abs(sum(ms for ms, _, _ in parts.values()) + rest - total) <= 0.25
