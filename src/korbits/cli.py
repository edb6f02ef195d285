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
rank past ``weyl.RANK_CAP``).  A reader that closes stdout early ends the
query quietly, with the exit code it had already earned.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from .catalog import (
    FAMILIES,
    GroupSpec,
    InvalidParams,
    MissingWkData,
    a_max,
    build,
    verify_matrix_claims,
)
from .descent import descent_report
from .twisted import (
    ReachabilityGraph,
    image_set,
    involution_levels,
    twisted_involutions,
)
from .weyl import SignedPerm, SubgroupTooLarge, canonical_key

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3
EXIT_TOO_LARGE = 4

# Every family parameter, in first-seen order: n, p, q, r.
_PARAM_NAMES = tuple(dict.fromkeys(n for _, names in FAMILIES.values() for n in names))


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


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns, two spaces apart, under a line of dashes."""
    widths = [max([len(h), *(len(r[i]) for r in rows)]) for i, h in enumerate(headers)]
    lines = [headers, ["-" * w for w in widths], *rows]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in lines
    )


# Table spelling of the JSON values that are not printed as str(value), by
# JSON key: a value is looked up only in its own column's table.
_SPELLING = {
    "in_image": {True: "yes", False: "no"},
    "ok": {True: "pass", False: "FAIL"},
    "partner": {None: "-"},
}

# A command's answer: its JSON rows, the summary, the table columns as
# header -> JSON key, the table's summary line, and the exit code.
_Answer = tuple[list[dict], dict, dict[str, str], str, int]


def _cmd_classify_tori(spec: GroupSpec) -> _Answer:
    rows = [
        {
            "index": c.index,
            "representative": c.representative.cycle_string(),
            "minus_dimension": c.minus_dimension,
            "class_size": c.orbit_size,
        }
        for c in spec.torus_classes()
    ]
    count = len(rows)
    columns = {
        "class": "index",
        "representative": "representative",
        "minus-dim": "minus_dimension",
        "size": "class_size",
    }
    line = f"{count} torus class{'es' if count != 1 else ''}"
    return rows, {"classes": count}, columns, line, EXIT_OK


def _cmd_orbits(spec: GroupSpec) -> _Answer:
    report = descent_report(spec)
    # A partner is another row's rep, and values repeat: render each once.
    spell = functools.cache(SignedPerm.cycle_string)
    rows = [
        {
            "torus_class": row.torus_index,
            "representative": spell(row.rep),
            "springer_value": spell(row.value),
            "length": row.length,
            "coset_size": row.coset_size,
            "field_of_definition": row.field,
            "partner": None if row.partner is None else spell(row.partner),
        }
        for row in report.rows
    ]
    fixed, pairs = report.fixed_count, report.pair_count
    summary = {"parameters": len(rows), "fixed": fixed, "pairs": pairs}
    columns = {
        "torus": "torus_class",
        "representative": "representative",
        "value": "springer_value",
        "length": "length",
        "field": "field_of_definition",
        "partner": "partner",
    }
    line = (
        f"{len(rows)} parameters: {fixed} over Z[1/2] + "
        f"{2 * pairs} in {pairs} Galois pair{'s' if pairs != 1 else ''}"
    )
    return rows, summary, columns, line, EXIT_OK


def _cmd_twisted(spec: GroupSpec) -> _Answer:
    ctx = spec.context
    involutions = twisted_involutions(ctx)
    top = a_max(spec)
    image = image_set(ctx, top)
    rows = [
        {"element": w.cycle_string(), "length": length, "in_image": w in image}
        for length, level in enumerate(involution_levels(ctx))
        for w in sorted(level, key=canonical_key)
    ]
    summary = {
        "twisted_involutions": len(involutions),
        "image_size": len(image),
        "a_max": top.cycle_string(),
    }
    columns = {"element": "element", "length": "length", "in-image": "in_image"}
    line = (
        f"|I| = {len(involutions)}, |I'| = {len(image)}, "
        f"a_max = {top.cycle_string()}"
    )
    return rows, summary, columns, line, EXIT_OK


def _cmd_verify(spec: GroupSpec) -> _Answer:
    claims = verify_matrix_claims(spec)
    rows = [{"claim": c.name, "ok": c.ok, "detail": c.detail} for c in claims]
    failures = sum(1 for c in claims if not c.ok)
    summary = {"claims": len(claims), "failures": failures}
    columns = {"status": "ok", "claim": "claim", "detail": "detail"}
    line = f"{len(claims)} claims: {len(claims) - failures} passed, {failures} failed"
    code = EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED
    return rows, summary, columns, line, code


#: Encodes a flat JSON row as its indented lines, on CPython's C encoder
#: (``indent`` would send every row through the pure-Python one).
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _indented(items: list[str], pad: str, brackets: str) -> str:
    """A JSON array or object whose encoded items sit one per line at
    ``pad``, its closing bracket two spaces left of them."""
    if not items:
        return brackets
    sep = ",\n" + pad
    return f"{brackets[0]}\n{pad}{sep.join(items)}\n{pad[:-2]}{brackets[1]}"


def _json_text(payload: dict) -> str:
    """The payload as JSON with sorted keys, indented by two spaces per
    level, and a newline: the standard library's indented dump, byte for
    byte, for a payload whose values are scalars, flat objects, or arrays
    of scalars or of flat objects (the rows).  Each row is one
    ``_ROW_ENCODER`` call, and the frame around the rows is written here."""
    encode = _ROW_ENCODER.encode
    fields = []
    for key, value in sorted(payload.items()):
        if isinstance(value, dict):
            pairs = [f"{encode(k)}: {encode(v)}" for k, v in sorted(value.items())]
            value = _indented(pairs, "    ", "{}")
        elif isinstance(value, list):
            items = [_json_row(v) if isinstance(v, dict) else encode(v) for v in value]
            value = _indented(items, "    ", "[]")
        else:
            value = encode(value)
        fields.append(f"{encode(key)}: {value}")
    return _indented(fields, "  ", "{}") + "\n"


def _json_row(row: dict) -> str:
    """A flat object at indent level two: the encoder's separators already
    put each of its pairs on its own line."""
    return "{\n      " + _ROW_ENCODER.encode(row)[1:-1] + "\n    }" if row else "{}"


_COMMANDS = {
    "classify-tori": _cmd_classify_tori,
    "orbits": _cmd_orbits,
    "twisted": _cmd_twisted,
    "verify": _cmd_verify,
}


def _write(spec: GroupSpec, command: str, fmt: str) -> int:
    """Print one query's whole output as a single string; return its exit code."""
    if fmt == "dot":
        text, code = ReachabilityGraph.build(spec.context).to_dot(), EXIT_OK
    else:
        rows, summary, columns, line, code = _COMMANDS[command](spec)
        if fmt == "json":
            payload = {
                "command": command,
                "family": spec.family,
                "params": list(spec.params),
                "rows": rows,
                "summary": summary,
            }
            text = _json_text(payload)
        else:
            spellings = [(key, _SPELLING.get(key, {})) for key in columns.values()]
            cells = [[str(sp.get(r[k], r[k])) for k, sp in spellings] for r in rows]
            table = render_table(list(columns), cells)
            text = f"{command} {spec.name}\n{table}\n{line}\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early: send what is left to devnull so the
        # interpreter's exit flush does not raise again, and keep the code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = build(args.family, *_collect_params(args))
        return _write(spec, args.command, args.format)
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
