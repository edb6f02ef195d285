"""Command-line front end.

Four subcommands over the family catalog:

* ``classify-tori`` — conjugacy classes of stable maximal tori,
* ``orbits``        — orbit parameters with their descent fields,
* ``twisted``       — twisted involutions, the monoid image, ``a_max``,
* ``verify``        — the exact matrix-identity checklist.

Output is a plain table by default, ``--format json`` emits a single object
validating against ``schemas/cli_output.schema.json``, and ``--format dot``
(twisted only) emits the monoid move graph in Graphviz syntax.  Identical
invocations produce byte-identical output.

Exit codes: 0 success, 1 failed verification claims, 2 invalid input,
3 query unsupported for the family (no little-Weyl-group data), 4 instance
too large to enumerate (a group or closure past ``weyl.SUBGROUP_CAP``, or a
rank past ``weyl.RANK_CAP``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from .catalog import (
    FAMILIES,
    GroupSpec,
    InvalidParams,
    MissingWkData,
    a_max,
    build,
    orbit_parameters,
    verify_matrix_claims,
)
from .descent import descent_report
from .twisted import (
    ReachabilityGraph,
    image_set,
    involution_lengths,
    twisted_involutions,
)
from .weyl import SubgroupTooLarge, canonical_key

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_TOO_LARGE = 4

_PARAM_NAMES = ("n", "p", "q", "r")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="korbits",
        description="Exact orbit parameters for the classical family catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "classify-tori": "list conjugacy classes of stable maximal tori",
        "orbits": "list orbit parameters with descent fields",
        "twisted": "list twisted involutions and the monoid image",
        "verify": "run the exact matrix-identity checklist",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--family",
            required=True,
            choices=sorted(FAMILIES),
            help="catalog family",
        )
        for pname in _PARAM_NAMES:
            cmd.add_argument(f"--{pname}", type=int, default=None)
        formats = ("table", "json", "dot") if name == "twisted" else ("table", "json")
        cmd.add_argument("--format", choices=formats, default="table")
    return parser


def _collect_params(args: argparse.Namespace) -> tuple[int, ...]:
    wanted = FAMILIES[args.family][1]
    values = []
    for pname in wanted:
        value = getattr(args, pname)
        if value is None:
            raise InvalidParams(f"family {args.family} requires --{pname}")
        values.append(value)
    for pname in _PARAM_NAMES:
        if pname not in wanted and getattr(args, pname) is not None:
            raise InvalidParams(f"family {args.family} does not take --{pname}")
    return tuple(values)


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def _emit(
    spec: GroupSpec,
    command: str,
    fmt: str,
    json_rows: list[dict],
    summary: dict,
    headers: Sequence[str],
    table_rows: Sequence[Sequence[str]],
    summary_line: str,
) -> None:
    if fmt == "json":
        payload = {
            "command": command,
            "family": spec.family,
            "params": list(spec.params),
            "rows": json_rows,
            "summary": summary,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{command} {spec.name}")
        print(_render_table(headers, table_rows))
        print(summary_line)


def _cmd_classify_tori(spec: GroupSpec, fmt: str) -> int:
    classes = spec.torus_classes()
    json_rows = [
        {
            "index": c.index,
            "representative": c.representative.cycle_string(),
            "minus_dimension": c.minus_dimension,
            "class_size": c.orbit_size,
        }
        for c in classes
    ]
    table_rows = [
        [str(r["index"]), r["representative"], str(r["minus_dimension"]), str(r["class_size"])]
        for r in json_rows
    ]
    count = len(classes)
    _emit(
        spec,
        "classify-tori",
        fmt,
        json_rows,
        {"classes": count},
        ("class", "representative", "minus-dim", "size"),
        table_rows,
        f"{count} torus class{'es' if count != 1 else ''}",
    )
    return EXIT_OK


def _cmd_orbits(spec: GroupSpec, fmt: str) -> int:
    params = {(p.torus_index, p.rep): p for p in orbit_parameters(spec)}
    report = descent_report(spec)
    ordered = sorted(report.rows, key=lambda r: (r.torus_index, canonical_key(r.rep)))
    json_rows = []
    for row in ordered:
        orbit = params[(row.torus_index, row.rep)]
        json_rows.append(
            {
                "torus_class": row.torus_index,
                "representative": row.rep.cycle_string(),
                "springer_value": row.value.cycle_string(),
                "length": orbit.length,
                "coset_size": orbit.coset_size,
                "field_of_definition": row.field,
                "partner": None if row.partner is None else row.partner.cycle_string(),
            }
        )
    table_rows = [
        [
            str(r["torus_class"]),
            r["representative"],
            r["springer_value"],
            str(r["length"]),
            r["field_of_definition"],
            r["partner"] if r["partner"] is not None else "-",
        ]
        for r in json_rows
    ]
    total = len(json_rows)
    summary = {
        "parameters": total,
        "fixed": report.fixed_count,
        "pairs": report.pair_count,
    }
    line = (
        f"{total} parameters: {report.fixed_count} over Z[1/2] + "
        f"{2 * report.pair_count} in {report.pair_count} Galois pair"
        f"{'s' if report.pair_count != 1 else ''}"
    )
    _emit(
        spec,
        "orbits",
        fmt,
        json_rows,
        summary,
        ("torus", "representative", "value", "length", "field", "partner"),
        table_rows,
        line,
    )
    return EXIT_OK


def _cmd_twisted(spec: GroupSpec, fmt: str) -> int:
    ctx = spec.context
    if fmt == "dot":
        sys.stdout.write(ReachabilityGraph.build(ctx).to_dot())
        return EXIT_OK
    involutions = twisted_involutions(ctx)
    top = a_max(spec)
    image = image_set(ctx, top)
    lengths = involution_lengths(ctx)
    ordered = sorted(involutions, key=lambda w: (lengths[w], canonical_key(w)))
    json_rows = [
        {"element": w.cycle_string(), "length": lengths[w], "in_image": w in image}
        for w in ordered
    ]
    table_rows = [
        [r["element"], str(r["length"]), "yes" if r["in_image"] else "no"]
        for r in json_rows
    ]
    summary = {
        "twisted_involutions": len(involutions),
        "image_size": len(image),
        "a_max": top.cycle_string(),
    }
    line = (
        f"|I| = {len(involutions)}, |I'| = {len(image)}, "
        f"a_max = {top.cycle_string()}"
    )
    _emit(
        spec,
        "twisted",
        fmt,
        json_rows,
        summary,
        ("element", "length", "in-image"),
        table_rows,
        line,
    )
    return EXIT_OK


def _cmd_verify(spec: GroupSpec, fmt: str) -> int:
    claims = verify_matrix_claims(spec)
    json_rows = [{"claim": c.name, "ok": c.ok, "detail": c.detail} for c in claims]
    table_rows = [
        ["pass" if r["ok"] else "FAIL", r["claim"], r["detail"]] for r in json_rows
    ]
    failures = sum(1 for c in claims if not c.ok)
    summary = {"claims": len(claims), "failures": failures}
    line = f"{len(claims)} claims: {len(claims) - failures} passed, {failures} failed"
    _emit(
        spec,
        "verify",
        fmt,
        json_rows,
        summary,
        ("status", "claim", "detail"),
        table_rows,
        line,
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


_COMMANDS = {
    "classify-tori": _cmd_classify_tori,
    "orbits": _cmd_orbits,
    "twisted": _cmd_twisted,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = build(args.family, *_collect_params(args))
        return _COMMANDS[args.command](spec, args.format)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MissingWkData as exc:
        print(f"error: {exc} (the 'twisted' subcommand)", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except SubgroupTooLarge as exc:
        print(f"error: instance too large to enumerate: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    raise SystemExit(main())
