#!/usr/bin/env python3
"""Census of the whole catalog: one row per instance.

Sweeps every family up to a group-order cap and tabulates the torus class
count, parameter count, descent split and twisted-involution sizes, so a
change anywhere in the pipeline shows up as a diff of this table.

    python3 scripts/orbit_census.py --max-order 46080
"""

import argparse

from korbits.catalog import MissingWkData, a_max, build, orbit_parameters
from korbits.cli import render_table
from korbits.descent import descent_report
from korbits.twisted import image_set, twisted_involutions


def instances(max_order):
    ranges = {
        "GL": [(n,) for n in range(1, 9)],
        "SL2n": [(n,) for n in range(1, 5)],
        "Ustar": [(n,) for n in range(1, 5)],
        "SOodd1": [(n,) for n in range(1, 7)],
        "SOeven1": [(n,) for n in range(1, 7)],
        "Upq": [(p, q) for q in range(1, 4) for p in range(q, 8 - q)],
        "Restriction": [(r,) for r in range(1, 6)],
    }
    for family, cases in ranges.items():
        for params in cases:
            spec = build(family, *params)
            if spec.group.order <= max_order:
                yield spec


def census_row(spec):
    ctx = spec.context
    image = image_set(ctx, a_max(spec))
    row = {
        "instance": spec.name,
        "|W|": spec.group.order,
        "tori": len(spec.tori),
        "classes": len(spec.torus_classes()),
        "|I|": len(twisted_involutions(ctx)),
        "|I'|": len(image),
    }
    try:
        row["params"] = len(orbit_parameters(spec))
        report = descent_report(spec)
        row["fixed"] = report.fixed_count
        row["pairs"] = report.pair_count
    except MissingWkData:
        row["params"] = row["fixed"] = row["pairs"] = "-"
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-order",
        type=int,
        default=2**6 * 720,
        help="skip instances whose Weyl group is larger than this",
    )
    args = parser.parse_args()

    columns = ("instance", "|W|", "tori", "classes", "params", "fixed", "pairs", "|I|", "|I'|")
    rows = [census_row(spec) for spec in instances(args.max_order)]
    print(render_table(columns, [[str(row[c]) for c in columns] for row in rows]))


if __name__ == "__main__":
    main()
