#!/usr/bin/env python3
"""Render the monoid move graph of an instance, highlighting the image set.

Like ``korbits twisted --format dot`` but additionally fills the nodes that
the sweep from a_max reaches, so the image I' is visible at a glance:

    python3 scripts/reachability_dot.py Upq 2 1 | dot -Tsvg > u21.svg

For the bare move graph, use ``korbits twisted --family Upq --p 2 --q 1
--format dot``.
"""

import argparse
import sys

from korbits.catalog import FAMILIES, a_max, build
from korbits.twisted import ReachabilityGraph, image_set


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family", choices=sorted(FAMILIES))
    parser.add_argument("params", type=int, nargs="+")
    args = parser.parse_args()

    spec = build(args.family, *args.params)
    dot = ReachabilityGraph.build(spec.context).to_dot()
    image = image_set(spec.context, a_max(spec))
    lines = dot.splitlines()
    out = [lines[0], "  node [style=filled, fillcolor=white];"]
    for w in sorted(image, key=lambda x: x.images):
        ident = ",".join(str(v) for v in w.images)
        out.append(f'  "{ident}" [fillcolor=lightgrey];')
    out.extend(lines[1:])
    sys.stdout.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
