#!/usr/bin/env python3
"""Where a fresh import of korbits spends its time, as the benchmark pays it.

``perfbench/run.py`` drops ``korbits`` from ``sys.modules`` before every
set-up and imports ``korbits.catalog`` and ``korbits.cli`` again.  This
script does the same in a child interpreter run with
``PYTHONDONTWRITEBYTECODE=1`` and an empty ``PYTHONPYCACHEPREFIX``, as in a
new checkout with no bytecode cached, so every import compiles
``src/korbits`` from source.  One unreported import first loads the
standard library; then each of ``--imports`` fresh imports prints its wall
time split into compiling ``src/korbits`` (``SourceFileLoader.
source_to_code``), creating the package's dataclasses
(``dataclasses._process_class``), creating its named tuples
(``typing.NamedTupleMeta.__new__``) and the rest, each part with its count,
followed by the medians.  Nothing under ``perfbench/`` is read or edited.

    python3 scripts/import_cost.py --imports 5
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
#: Each timed part with what its count counts.
PARTS = {"compile": "modules", "dataclasses": "classes", "namedtuples": "classes"}


def _timed(fn, spent: dict, part: str, ours):
    """``fn``, adding its wall time and one call to ``spent[part]`` when
    ``ours(*args)`` holds."""

    def wrapper(*args, **kwargs):
        if not ours(*args):
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[part][0] += time.perf_counter() - start
            spent[part][1] += 1

    return wrapper


def fresh_import(spent: dict) -> float:
    """Wall seconds of one import of korbits.catalog and korbits.cli after
    dropping every korbits module, with ``spent`` reset first."""
    for name in [m for m in sys.modules if m == "korbits" or m.startswith("korbits.")]:
        del sys.modules[name]
    for part in PARTS:
        spent[part] = [0.0, 0]
    gc.collect()
    start = time.perf_counter()
    importlib.import_module("korbits.catalog")
    importlib.import_module("korbits.cli")
    return time.perf_counter() - start


def child(imports: int) -> None:
    import dataclasses
    import typing
    from importlib.machinery import SourceFileLoader

    sys.path.insert(0, str(SRC))
    package = str(SRC / "korbits")
    spent: dict = {}
    SourceFileLoader.source_to_code = _timed(
        SourceFileLoader.source_to_code, spent, "compile",
        lambda loader, data, path, *_: str(path).startswith(package),
    )
    dataclasses._process_class = _timed(
        dataclasses._process_class, spent, "dataclasses",
        lambda cls, *_: cls.__module__.startswith("korbits"),
    )
    typing.NamedTupleMeta.__new__ = _timed(
        typing.NamedTupleMeta.__new__, spent, "namedtuples",
        lambda meta, name, bases, ns: ns["__module__"].startswith("korbits"),
    )
    fresh_import(spent)
    rows = []
    for k in range(1, imports + 1):
        total = fresh_import(spent)
        times = [spent[part][0] for part in PARTS]
        rest = total - sum(times)
        rows.append([total, *times, rest])
        parts = " + ".join(
            f"{part} {spent[part][0] * 1e3:.1f} ms ({spent[part][1]} {unit})"
            for part, unit in PARTS.items()
        )
        print(
            f"import {k}: {total * 1e3:.1f} ms = {parts} + rest {rest * 1e3:.1f} ms",
            flush=True,
        )
    total, *times, rest = (statistics.median(col) * 1e3 for col in zip(*rows))
    parts = " + ".join(f"{part} {t:.1f} ms" for part, t in zip(PARTS, times))
    print(f"median of {imports}: {total:.1f} ms = {parts} + rest {rest:.1f} ms")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--imports", type=int, default=5)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.imports < 1:
        ap.error("--imports must be at least 1")
    if args.child:
        child(args.imports)
        return 0
    with tempfile.TemporaryDirectory() as empty:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=empty)
        argv = [sys.executable, __file__, "--child", "--imports", str(args.imports)]
        return subprocess.run(argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
