#!/usr/bin/env python3
"""Fingerprints of everything the CLI prints on the small catalog instances.

Runs every subcommand in every format on every catalog instance with
|W| <= 5040 (the ``orbit_census.py`` sweep), in-process, and maps each
query to the sha256 of its exit status, stdout and stderr.  The committed
table is ``tests/golden_outputs.json``; ``tests/test_golden_outputs.py``
recomputes it, so a change to any printed byte fails the suite.

    python3 scripts/golden_outputs.py > tests/golden_outputs.json
"""

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


def queries(max_order=MAX_ORDER):
    """The argument vector of every query, instance by instance."""
    for spec in instances(max_order):
        params = []
        for name, value in zip(FAMILIES[spec.family][1], spec.params):
            params += [f"--{name}", str(value)]
        for command, formats in FORMATS.items():
            for fmt in formats:
                yield [command, "--family", spec.family, *params, "--format", fmt]


def digest(argv):
    """sha256 of the exit status, stdout and stderr of one query."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = korbits_main(argv)
    blob = json.dumps([status, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def golden(max_order=MAX_ORDER):
    return {" ".join(argv): digest(argv) for argv in queries(max_order)}


def main():
    json.dump(golden(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
