#!/usr/bin/env python3
"""Fingerprints of everything the CLI prints on the small catalog instances.

Runs every subcommand in every format on every catalog instance with
|W| <= 5040 (the ``orbit_census.py`` sweep), in-process, and maps each
query to the sha256 of its exit status, stdout and stderr.  The committed
table is ``tests/golden_outputs.json``; ``tests/test_golden_outputs.py``
recomputes it, so a change to any printed byte fails the suite.

The one argument names the table to print (``small``, the default):

    PYTHONPATH=src python3 scripts/golden_outputs.py > tests/golden_outputs.json
    PYTHONPATH=src python3 scripts/golden_outputs.py verify-large > tests/golden_verify_large.json
    PYTHONPATH=src python3 scripts/golden_outputs.py tori-large > tests/golden_tori_large.json
    PYTHONPATH=src python3 scripts/golden_outputs.py orbits-large > tests/golden_orbits_large.json
    PYTHONPATH=src python3 scripts/golden_outputs.py twisted-large > tests/golden_twisted_large.json

The larger tables fingerprint one command on instances past the small
sweep, and ``tests/test_golden_outputs.py`` checks them as well:

- ``verify-large``: ``verify --format table`` on ``VERIFY_LARGE``
  (``verify`` is the one command that reads the torus realizers);
- ``tori-large``: ``classify-tori`` in table and json form on
  ``TORI_LARGE``;
- ``orbits-large``: ``orbits`` in table and json form on ``ORBITS_LARGE``,
  whose Weyl groups are past 5040 elements;
- ``twisted-large``: ``twisted`` in table, json and dot form on
  ``TWISTED_LARGE``, whose Weyl groups are past 5040 elements.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys

from korbits.catalog import FAMILIES
from korbits.cli import main as korbits_main
from orbit_census import instances

MAX_ORDER = 5040
FORMATS = {
    "classify-tori": ("table", "json"),
    "orbits": ("table", "json"),
    "twisted": ("table", "json", "dot"),
    "verify": ("table", "json"),
}


#: Instances past |W| <= 5040 whose ``verify`` output is fingerprinted.
VERIFY_LARGE = (
    [("GL", (n,)) for n in range(8, 15)]
    + [("SL2n", (n,)) for n in range(4, 8)]
    + [("Upq", (s - q, q)) for s in range(8, 13) for q in range(1, s // 2 + 1)]
    + [("SOodd1", (n,)) for n in range(6, 12)]
    + [("SOeven1", (n,)) for n in range(7, 9)]
    + [("Ustar", (n,)) for n in range(4, 11)]
    + [("Restriction", (r,)) for r in range(5, 13)]
    + [("SL2n", (8,))]
    + [("GL", (30,)), ("Upq", (15, 15)), ("SL2n", (20,))]
)

#: Instances past |W| <= 5040 whose ``classify-tori`` output is fingerprinted.
TORI_LARGE = (
    [("GL", (n,)) for n in (7, 8, 10)]
    + [("Upq", (s - q, q)) for s in (8, 9) for q in range(1, s // 2 + 1)]
    + [("SL2n", (n,)) for n in (5, 6)]
    + [("Ustar", (5,))]
    + [(f, (n,)) for f in ("SOodd1", "SOeven1") for n in (7, 8)]
    + [("Restriction", (6,))]
    + [("Upq", (100, 1)), ("Upq", (100, 2)), ("Upq", (30, 3)), ("Upq", (40, 6))]
    + [("SOeven1", (100,))]
)

#: Instances past |W| <= 5040 whose ``orbits`` output is fingerprinted.
ORBITS_LARGE = (
    [("SL2n", (n,)) for n in (4, 5)]
    + [("Upq", (8 - q, q)) for q in range(1, 5)]
    + [("Upq", (5, 4))]
    + [(f, (n,)) for f, ns in (("SOodd1", (5, 6, 7)), ("SOeven1", (7, 8))) for n in ns]
    + [("Restriction", (r,)) for r in (5, 6)]
)

#: Instances past |W| <= 5040 whose ``twisted`` output is fingerprinted.
TWISTED_LARGE = (
    [("GL", (n,)) for n in (8, 9)]
    + [("Ustar", (4,)), ("SL2n", (4,)), ("Upq", (4, 4)), ("Upq", (5, 3))]
    + [(f, (n,)) for f, ns in (("SOodd1", (5, 6)), ("SOeven1", (6, 7))) for n in ns]
    + [("Restriction", (r,)) for r in (5, 6)]
)


def command_line(command, family, params, fmt):
    options = []
    for name, value in zip(FAMILIES[family][1], params):
        options += [f"--{name}", str(value)]
    return [command, "--family", family, *options, "--format", fmt]


def queries(max_order=MAX_ORDER):
    """The argument vector of every query, instance by instance."""
    for spec in instances(max_order):
        for command, formats in FORMATS.items():
            for fmt in formats:
                yield command_line(command, spec.family, spec.params, fmt)


def digest(argv):
    """sha256 of the exit status, stdout and stderr of one query."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = korbits_main(argv)
    blob = json.dumps([status, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def golden(max_order=MAX_ORDER):
    return {" ".join(argv): digest(argv) for argv in queries(max_order)}


def golden_verify_large():
    lines = [command_line("verify", f, p, "table") for f, p in VERIFY_LARGE]
    return {" ".join(argv): digest(argv) for argv in lines}


def golden_tori_large():
    lines = [
        command_line("classify-tori", f, p, fmt)
        for f, p in TORI_LARGE
        for fmt in FORMATS["classify-tori"]
    ]
    return {" ".join(argv): digest(argv) for argv in lines}


def golden_orbits_large():
    lines = [
        command_line("orbits", f, p, fmt)
        for f, p in ORBITS_LARGE
        for fmt in FORMATS["orbits"]
    ]
    return {" ".join(argv): digest(argv) for argv in lines}


def golden_twisted_large():
    lines = [
        command_line("twisted", f, p, fmt)
        for f, p in TWISTED_LARGE
        for fmt in FORMATS["twisted"]
    ]
    return {" ".join(argv): digest(argv) for argv in lines}


TABLES = {
    "small": golden,
    "verify-large": golden_verify_large,
    "tori-large": golden_tori_large,
    "orbits-large": golden_orbits_large,
    "twisted-large": golden_twisted_large,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Print one golden-hash table.")
    parser.add_argument("table", nargs="?", default="small", choices=TABLES)
    table = TABLES[parser.parse_args(argv).table]
    json.dump(table(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
