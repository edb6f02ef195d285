"""Correctness checks on ``korbits`` output, computed apart from the program.

Nothing here compares against stored output.  Each check parses what the
CLI printed and tests it against closed forms or against properties the
benchmark computes itself with ``groups`` (its own signed-permutation
arithmetic).  From the program it reads only instance data: the twist,
base and torus elements, little-Weyl-group generators, Galois factors,
the lattice involution and the realizer matrices.

``check`` returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial
from pathlib import Path

import groups
from groups import Perm
from workloads import EXIT_OK, NO_WK_DATA, Query

FIELD_FIXED = "Z[1/2]"
FIELD_PAIR = "Z[1/2,i]-pair"

_ELEMENT = re.compile(r"(e|(?:\([0-9 ]+\))+)(?:\[([+-]+)\])?")


def parse_element(text: str, rank: int) -> Perm:
    """Inverse of the cycle notation: cycles of |w|, then a sign vector."""
    m = _ELEMENT.fullmatch(text)
    if m is None:
        raise ValueError(f"not an element: {text!r}")
    perm = list(range(1, rank + 1))
    moved: set[int] = set()
    if m.group(1) != "e":
        for cycle in re.findall(r"\(([0-9 ]+)\)", m.group(1)):
            items = [int(x) for x in cycle.split()]
            if len(items) < 2 or moved & set(items) or max(items) > rank or min(items) < 1:
                raise ValueError(f"bad cycle in {text!r}")
            moved |= set(items)
            for a, b in zip(items, items[1:] + items[:1]):
                perm[a - 1] = b
    marks = m.group(2) or "+" * rank
    if len(marks) != rank:
        raise ValueError(f"sign vector of {text!r} does not have {rank} entries")
    return tuple(p if s == "+" else -p for p, s in zip(perm, marks))


_RATIONAL = r"-?\d+(?:/\d+)?"
_GAUSS = re.compile(rf"(?P<re>{_RATIONAL})|(?P<im>{_RATIONAL})i|(?P<both>{_RATIONAL})(?P<imag>[+-]\d+(?:/\d+)?)i")


def parse_gauss(text: str) -> groups.Gauss:
    """Read ``a``, ``bi`` or ``a+bi`` / ``a-bi`` with dyadic a and b."""
    m = _GAUSS.fullmatch(text)
    if m is None:
        raise ValueError(f"not a Gaussian rational: {text!r}")
    if m.group("re"):
        return Fraction(m.group("re")), Fraction(0)
    if m.group("im"):
        return Fraction(0), Fraction(m.group("im"))
    return Fraction(m.group("both")), Fraction(m.group("imag"))


# -- instance data --------------------------------------------------------


def _dyadic(d) -> Fraction:
    return Fraction(d.num) * Fraction(2) ** d.exp


def _matrix(m) -> list[list[groups.Gauss]] | None:
    if m is None:
        return None
    return [[(_dyadic(z.re), _dyadic(z.im)) for z in row] for row in m.entries]


def _images(w) -> Perm | None:
    return None if w is None else tuple(w.images)


@dataclass
class Torus:
    c: Perm
    wk_generators: tuple[Perm, ...] | None
    galois: tuple[Perm | None, Perm | None, Perm | None]  # conj, left, right
    matrix: list[list[groups.Gauss]] | None


@dataclass
class Instance:
    """One catalog instance: its data, read from a ``GroupSpec``, and the
    facts the benchmark derives from that data with its own arithmetic."""

    family: str
    params: tuple[int, ...]
    t: Perm
    b: Perm
    tori: list[Torus]
    lattice: list[list[int]]
    block_realizer: list[list[groups.Gauss]] | None = None
    _wk: dict = field(default_factory=dict, repr=False)

    @staticmethod
    def from_spec(spec, block_realizer=None) -> "Instance":
        tori = [
            Torus(
                c=_images(d.twist_class),
                wk_generators=None
                if d.wk_generators is None
                else tuple(_images(g) for g in d.wk_generators),
                galois=(_images(d.galois_conj), _images(d.galois_left), _images(d.galois_right)),
                matrix=_matrix(d.matrix),
            )
            for d in spec.tori
        ]
        inst = Instance(
            family=spec.family,
            params=tuple(spec.params),
            t=_images(spec.context.twist),
            b=_images(spec.context.base),
            tori=tori,
            lattice=[list(r) for r in spec.lattice.rows],
            block_realizer=_matrix(block_realizer),
        )
        if (spec.group.kind, spec.group.rank) != (inst.kind, inst.rank):
            raise ValueError(f"{spec.name}: unexpected Weyl group {spec.group.kind}{spec.group.rank}")
        return inst

    @cached_property
    def kind(self) -> str:
        return groups.group_of(self.family, self.params)[0]

    @cached_property
    def rank(self) -> int:
        return groups.group_of(self.family, self.params)[1]

    @cached_property
    def order(self) -> int:
        return groups.order(self.kind, self.rank)

    def length(self, w: Perm) -> int:
        if self.kind in ("A", "AxA"):
            n = len(w)
            return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
        return groups.length(self.kind, self.rank, w)

    def in_group(self, w: Perm) -> bool:
        return groups.contains(self.kind, self.rank, w)

    def is_twisted_involution(self, w: Perm) -> bool:
        return groups.is_twisted_involution(self.t, self.b, w)

    @cached_property
    def involution_count(self) -> int:
        """|I| from a closed form, or by testing every element of W."""
        fam, p = self.family, self.params
        if fam in ("GL", "Upq"):
            return groups.involutions_sym(self.rank)
        if fam == "SOeven1":
            return groups.involutions_hyperoctahedral(p[0])
        if fam == "Restriction":
            return factorial(p[0])
        return sum(
            1 for w in groups.elements(self.kind, self.rank) if self.is_twisted_involution(w)
        )

    @cached_property
    def image(self) -> frozenset[Perm]:
        """I' as the Springer sweep: values over W for every torus."""
        out: set[Perm] = set()
        for torus in self.tori:
            out |= groups.springer_image(self.t, self.b, torus.c, self.kind, self.rank)
        return frozenset(out)

    @cached_property
    def image_count(self) -> int | None:
        """|I'| in closed form, where one is known."""
        fam, p = self.family, self.params
        if fam == "GL":
            return self.involution_count
        if fam == "Ustar":
            return groups.double_factorial_odd(p[0])
        if fam in ("SOodd1", "SOeven1"):
            return p[0] + 1
        return None

    def wk(self, i: int) -> frozenset[Perm]:
        if i not in self._wk:
            gens = self.tori[i].wk_generators
            self._wk[i] = groups.closure(gens, self.rank)
        return self._wk[i]

    def canonical(self, i: int, x: Perm) -> Perm:
        """Least member of the coset W_K,i . x."""
        return min((groups.mul(h, x) for h in self.wk(i)), key=groups.canonical_key)

    def galois_image(self, i: int, w: Perm) -> Perm:
        conj, left, right = self.tori[i].galois
        x = w
        if conj is not None:
            x = groups.mul(groups.mul(conj, x), groups.inv(conj))
        if left is not None:
            x = groups.mul(left, x)
        if right is not None:
            x = groups.mul(x, right)
        return self.canonical(i, x)

    @cached_property
    def parameter_count(self) -> int | None:
        fam, p = self.family, self.params
        if fam == "Upq":
            return groups.upq_clans(*p)
        if fam == "Restriction":
            return factorial(p[0])
        if fam in ("SOodd1", "SOeven1"):
            return p[0] + 1
        return None

    @cached_property
    def psi0_group(self) -> frozenset[Perm]:
        return groups.psi0_reflection_group(self.lattice, self.kind, self.rank)


# -- output parsing -----------------------------------------------------------

_TABLE_KEYS = {
    "classify-tori": ("index", "representative", "minus_dimension", "class_size"),
    "orbits": (
        "torus_class",
        "representative",
        "springer_value",
        "length",
        "field_of_definition",
        "partner",
    ),
    "twisted": ("element", "length", "in_image"),
    "verify": ("ok", "claim", "detail"),
}
_INT_KEYS = {"index", "minus_dimension", "class_size", "torus_class", "length"}

_SUMMARY = {
    "classify-tori": (re.compile(r"(\d+) torus class(?:es)?"), ("classes",)),
    "orbits": (
        re.compile(r"(\d+) parameters: (\d+) over Z\[1/2\] \+ (\d+) in (\d+) Galois pairs?"),
        ("parameters", "fixed", "pair_members", "pairs"),
    ),
    "twisted": (
        re.compile(r"\|I\| = (\d+), \|I'\| = (\d+), a_max = (.+)"),
        ("twisted_involutions", "image_size", "a_max"),
    ),
    "verify": (
        re.compile(r"(\d+) claims: (\d+) passed, (\d+) failed"),
        ("claims", "passed", "failures"),
    ),
}


def parse_table(command: str, text: str) -> tuple[list[dict], dict]:
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 4 or not lines[0].startswith(command + " "):
        raise ValueError("table output has no title, header and summary")
    starts = [m.start() for m in re.finditer(r"-+", lines[2])]
    keys = _TABLE_KEYS[command]
    if len(starts) != len(keys):
        raise ValueError(f"table has {len(starts)} columns, expected {len(keys)}")
    rows = []
    for line in lines[3:-1]:
        cells = [
            line[a:b].strip() for a, b in zip(starts, starts[1:] + [len(line)])
        ]
        row = dict(zip(keys, cells))
        for k in _INT_KEYS & row.keys():
            row[k] = int(row[k])
        if command == "twisted":
            row["in_image"] = {"yes": True, "no": False}[row["in_image"]]
        if command == "orbits" and row["partner"] == "-":
            row["partner"] = None
        if command == "verify":
            row["ok"] = {"pass": True, "FAIL": False}[row["ok"]]
        rows.append(row)
    pattern, names = _SUMMARY[command]
    m = pattern.fullmatch(lines[-1])
    if m is None:
        raise ValueError(f"unparsed summary line {lines[-1]!r}")
    summary = {k: (v if k == "a_max" else int(v)) for k, v in zip(names, m.groups())}
    if command == "orbits" and summary.pop("pair_members") != 2 * summary["pairs"]:
        raise ValueError("summary pair count is inconsistent")
    if command == "verify":
        summary.pop("passed")
    return rows, summary


def parse_dot(text: str, rank: int):
    nodes: dict[Perm, tuple[Perm, int]] = {}
    edges: set[tuple[Perm, int, Perm]] = set()
    lines = text.rstrip("\n").split("\n")
    if lines[:2] != ["digraph twisted {", "  rankdir=BT;"] or lines[-1] != "}":
        raise ValueError("dot output lacks its header or closing brace")

    def ident(s: str) -> Perm:
        return tuple(int(x) for x in s.split(","))

    for line in lines[2:-1]:
        m = re.fullmatch(r'  "([-0-9,]+)" \[label="(.+) \((\d+)\)"\];', line)
        if m:
            node = ident(m.group(1))
            if node in nodes:
                raise ValueError(f"node {node} listed twice")
            nodes[node] = (parse_element(m.group(2), rank), int(m.group(3)))
            continue
        m = re.fullmatch(r'  "([-0-9,]+)" -> "([-0-9,]+)" \[label="s(\d+)"\];', line)
        if m is None:
            raise ValueError(f"unparsed dot line {line!r}")
        edges.add((ident(m.group(1)), int(m.group(3)), ident(m.group(2))))
    return nodes, edges


# -- checks -------------------------------------------------------------------


class Checker:
    """Checks query outputs against one ``Instance`` per catalog instance."""

    def __init__(self, instances: dict, schema_path: Path):
        import jsonschema  # imported here, after peak memory has been read

        self.instances = instances
        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def check(self, query: Query, status: int, out: str, err: str) -> list[str]:
        if status != query.expect:
            return [f"exit status {status}, expected {query.expect}: {err.strip()[:200]}"]
        if query.expect != EXIT_OK:
            if out or not err.startswith("error: "):
                return ["a refusal must print nothing on stdout and one error line"]
            return []
        inst = self.instances[query.instance]
        try:
            if query.fmt == "dot":
                return self._dot(inst, out)
            if query.fmt == "json":
                payload = json.loads(out)
                problems = [
                    f"schema: {e.message}" for e in self.validator.iter_errors(payload)
                ]
                if (payload["command"], payload["family"], tuple(payload["params"])) != (
                    query.command,
                    query.family,
                    query.params,
                ):
                    problems.append("json names another query")
                if problems:
                    return problems
                rows, summary = payload["rows"], payload["summary"]
            else:
                rows, summary = parse_table(query.command, out)
            body = {
                "twisted": self._twisted,
                "orbits": self._orbits,
                "classify-tori": self._tori,
                "verify": self._verify,
            }[query.command]
            return body(inst, rows, summary)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _twisted(self, inst: Instance, rows: list[dict], summary: dict) -> list[str]:
        problems = []
        elements = [parse_element(r["element"], inst.rank) for r in rows]
        problems += self._involution_set(inst, elements)
        lengths = [inst.length(w) for w in elements]
        if [r["length"] for r in rows] != lengths:
            problems.append("a printed length differs from the Coxeter length")
        keys = [(ln, groups.canonical_key(w)) for ln, w in zip(lengths, elements)]
        if keys != sorted(keys):
            problems.append("rows are not ordered by (length, canonical key)")
        image = {w for w, r in zip(elements, rows) if r["in_image"]}
        problems += self._image(inst, image)
        if summary["twisted_involutions"] != len(rows) or summary["image_size"] != len(image):
            problems.append("summary counts disagree with the rows")
        top = parse_element(summary["a_max"], inst.rank)
        if top not in image:
            problems.append("a_max is not in I'")
        elif sum(1 for w in image if inst.length(w) >= inst.length(top)) != 1:
            problems.append("a_max is not the unique longest element of I'")
        return problems

    def _involution_set(self, inst: Instance, elements: list[Perm]) -> list[str]:
        problems = []
        if len(set(elements)) != len(elements):
            problems.append("an element is listed twice")
        bad = [w for w in elements if not (inst.in_group(w) and inst.is_twisted_involution(w))]
        if bad:
            problems.append(f"{len(bad)} listed elements are not twisted involutions, e.g. {bad[0]}")
        if len(elements) != inst.involution_count:
            problems.append(f"|I| = {len(elements)}, expected {inst.involution_count}")
        return problems

    def _image(self, inst: Instance, image: set[Perm]) -> list[str]:
        problems = []
        if image != inst.image:
            problems.append(f"I' ({len(image)}) differs from the Springer sweep ({len(inst.image)})")
        if inst.image_count is not None and len(image) != inst.image_count:
            problems.append(f"|I'| = {len(image)}, expected {inst.image_count}")
        return problems

    def _dot(self, inst: Instance, out: str) -> list[str]:
        nodes, edges = parse_dot(out, inst.rank)
        problems = []
        if any(node != label for node, (label, _) in nodes.items()):
            problems.append("a node label names another element")
        elements = list(nodes)
        problems += self._involution_set(inst, elements)
        if any(inst.length(w) != ln for w, (_, ln) in nodes.items()):
            problems.append("a node length differs from the Coxeter length")
        simples = groups.simple_reflections(inst.kind, inst.rank)
        want = set()
        for a in elements:
            for idx, s in enumerate(simples, start=1):
                moved = groups.monoid_move(inst.kind, inst.rank, inst.t, inst.b, s, a)
                if moved != a:
                    want.add((a, idx, moved))
        if edges != want:
            problems.append(f"{len(edges ^ want)} monoid edges differ from the move rule")
        return problems

    def _orbits(self, inst: Instance, rows: list[dict], summary: dict) -> list[str]:
        if inst.family in NO_WK_DATA:
            return ["orbits answered for a family without little-Weyl-group data"]
        problems = []
        rank = inst.rank
        reps = [(r["torus_class"], parse_element(r["representative"], rank)) for r in rows]
        if [(i, groups.canonical_key(w)) for i, w in reps] != sorted(
            (i, groups.canonical_key(w)) for i, w in reps
        ):
            problems.append("rows are not ordered by (torus, canonical key)")
        fixed = pair_rows = 0
        for i, torus in enumerate(inst.tori):
            mine = [(w, r) for (ti, w), r in zip(reps, rows) if ti == i]
            wk = inst.wk(i)
            if len(mine) * len(wk) != inst.order:
                problems.append(
                    f"torus {i}: {len(mine)} cosets of |W_K| = {len(wk)} do not cover |W| = {inst.order}"
                )
            if any("coset_size" in r and r["coset_size"] != len(wk) for _, r in mine):
                problems.append(f"torus {i}: a coset size differs from |W_K,{i}| = {len(wk)}")
            if sum(r.get("coset_size", len(wk)) for _, r in mine) != inst.order:
                problems.append(f"torus {i}: coset sizes do not sum to |W|")
            for w, r in mine:
                if not inst.in_group(w) or inst.canonical(i, w) != w:
                    problems.append(f"torus {i}: {r['representative']} is not a canonical representative")
                    break
                value = groups.springer_value(inst.t, inst.b, torus.c, w)
                if parse_element(r["springer_value"], rank) != value or not inst.is_twisted_involution(value):
                    problems.append(f"torus {i}: wrong value for {r['representative']}")
                    break
                if r["length"] != inst.length(w):
                    problems.append(f"torus {i}: wrong length for {r['representative']}")
                    break
                partner = inst.galois_image(i, w)
                if partner == w:
                    fixed += 1
                    ok = r["field_of_definition"] == FIELD_FIXED and r["partner"] is None
                else:
                    pair_rows += 1
                    ok = r["field_of_definition"] == FIELD_PAIR and r["partner"] is not None and (
                        parse_element(r["partner"], rank) == partner
                    )
                if not ok:
                    problems.append(f"torus {i}: wrong descent field for {r['representative']}")
                    break
        if any(ti not in range(len(inst.tori)) for ti, _ in reps):
            problems.append("a row names a torus the family does not have")
        if (summary["parameters"], summary["fixed"], 2 * summary["pairs"]) != (len(rows), fixed, pair_rows):
            problems.append("summary differs from the descent computed over the rows")
        if summary["fixed"] + 2 * summary["pairs"] != summary["parameters"]:
            problems.append("fixed + 2*pairs differs from the parameter count")
        if inst.parameter_count is not None and len(rows) != inst.parameter_count:
            problems.append(f"{len(rows)} parameters, expected {inst.parameter_count}")
        return problems

    def _tori(self, inst: Instance, rows: list[dict], summary: dict) -> list[str]:
        problems = []
        rank = inst.rank
        reps = [parse_element(r["representative"], rank) for r in rows]
        if [r["index"] for r in rows] != list(range(len(rows))) or summary["classes"] != len(rows):
            problems.append("class indices or summary count are wrong")
        w_psi = inst.psi0_group
        if any(w not in w_psi or groups.mul(w, w) != groups.ident(rank) for w in reps):
            problems.append("a representative is not an involution of W(Psi0)")
        dims = [groups.minus_fixed_dimension(inst.lattice, w) for w in reps]
        if [r["minus_dimension"] for r in rows] != dims:
            problems.append("a minus-dimension differs from the fixed space on the minus space")
        keys = [(-d, groups.canonical_key(w)) for d, w in zip(dims, reps)]
        if keys != sorted(keys):
            problems.append("classes are not ordered by (-minus_dimension, canonical key)")
        involutions = sum(1 for w in w_psi if groups.mul(w, w) == groups.ident(rank))
        if sum(r["class_size"] for r in rows) != involutions:
            problems.append(f"class sizes do not sum to the {involutions} involutions of W(Psi0)")
        if inst.family == "GL":
            n = inst.params[0]
            want = [(groups.gl_torus_class_size(n, k), n - k) for k in range(n // 2 + 1)]
        elif inst.family == "Upq":
            q = inst.params[1]
            want = [(groups.upq_torus_class_size(q, k), q - k) for k in range(q + 1)]
        else:
            want = None
        got = [(r["class_size"], r["minus_dimension"]) for r in rows]
        if want is not None and got != want:
            problems.append(f"classes (size, minus-dim) {got}, expected {want}")
        return problems

    def _verify(self, inst: Instance, rows: list[dict], summary: dict) -> list[str]:
        problems = []
        if not rows or summary["claims"] != len(rows) or summary["failures"] != 0:
            problems.append("summary does not report every claim passing")
        failed = [r["claim"] for r in rows if not r["ok"]]
        if failed:
            problems.append(f"claims failed: {failed[:3]}")
        matrices = {}
        if inst.family in ("GL", "SL2n", "Upq"):
            for i, torus in enumerate(inst.tori):
                matrices[f"torus-{i}-realizer-det-unit"] = torus.matrix
        if inst.family == "SL2n":
            matrices["block-realizer-det-one"] = inst.block_realizer
        if inst.family == "SOeven1":
            matrices["split-realizer-det-one"] = inst.tori[1].matrix
        details = {r["claim"]: r["detail"] for r in rows}
        for name, matrix in matrices.items():
            m = re.match(r"det = (\S+)", details.get(name, ""))
            if m is None:
                problems.append(f"claim {name} is missing or reports no determinant")
            elif parse_gauss(m.group(1)) != groups.gauss_det(matrix):
                problems.append(f"claim {name}: det {m.group(1)} differs from exact elimination")
        return problems
