"""Tests of the benchmark's own arithmetic, checks and tracer, on instances
small enough to brute-force.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import itertools
import json
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

import pytest

import groups
import run
import speed
import tracer as tracer_mod
import workloads
from checks import Checker, Instance, parse_element, parse_gauss
from workloads import Query

ROOT = Path(__file__).resolve().parents[2]
SCHEMA = ROOT / "src" / "korbits" / "schemas" / "cli_output.schema.json"

SMALL_GROUPS = [("A", 4), ("B", 3), ("D", 4), ("AxA", 6)]
SMALL_INSTANCES = [
    ("GL", (4,)),
    ("SL2n", (2,)),
    ("Ustar", (2,)),
    ("SOodd1", (2,)),
    ("SOeven1", (3,)),
    ("Upq", (2, 2)),
    ("Upq", (3, 1)),
    ("Restriction", (3,)),
]


@pytest.fixture(scope="module")
def korbits():
    cli, catalog = run.load_package()
    return cli, catalog


def cli_output(cli, query: Query) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(query.argv)
    return status, out.getvalue(), err.getvalue()


def checker_for(catalog, family, params) -> Checker:
    inst = Instance.from_spec(catalog.build(family, *params), catalog.GBL)
    return Checker({(family, params): inst}, SCHEMA)


# -- groups -----------------------------------------------------------------


@pytest.mark.parametrize("kind,rank", SMALL_GROUPS)
def test_elements_closure_and_order_agree(kind, rank):
    listed = set(groups.elements(kind, rank))
    assert len(listed) == groups.order(kind, rank)
    assert listed == groups.closure(groups.simple_reflections(kind, rank), rank)
    assert all(groups.contains(kind, rank, w) for w in listed)


@pytest.mark.parametrize("kind,rank", SMALL_GROUPS)
def test_length_is_word_length(kind, rank):
    """Root counting equals the distance from e in the Cayley graph."""
    simples = groups.simple_reflections(kind, rank)
    dist = {groups.ident(rank): 0}
    frontier = [groups.ident(rank)]
    while frontier:
        nxt = []
        for w in frontier:
            for s in simples:
                x = groups.mul(w, s)
                if x not in dist:
                    dist[x] = dist[w] + 1
                    nxt.append(x)
        frontier = nxt
    assert all(groups.length(kind, rank, w) == d for w, d in dist.items())


def test_involution_counts_match_brute_force():
    for n in range(0, 7):
        brute = sum(1 for w in groups.elements("A", n) if groups.mul(w, w) == groups.ident(n))
        assert groups.involutions_sym(n) == brute
    for n in range(1, 5):
        brute = sum(1 for w in groups.elements("B", n) if groups.mul(w, w) == groups.ident(n))
        assert groups.involutions_hyperoctahedral(n) == brute


def test_closed_forms():
    assert groups.upq_clans(4, 4) == 2835
    assert groups.upq_clans(1, 1) == 3
    assert groups.double_factorial_odd(4) == 105
    for n in range(1, 8):
        assert sum(groups.gl_torus_class_size(n, k) for k in range(n // 2 + 1)) == groups.involutions_sym(n)


@pytest.mark.parametrize("family,params", SMALL_INSTANCES)
def test_springer_image_matches_sweep_over_w(korbits, family, params):
    _, catalog = korbits
    inst = Instance.from_spec(catalog.build(family, *params))
    for torus in inst.tori:
        sweep = {
            groups.springer_value(inst.t, inst.b, torus.c, w)
            for w in groups.elements(inst.kind, inst.rank)
        }
        assert groups.springer_image(inst.t, inst.b, torus.c, inst.kind, inst.rank) == sweep


def test_gauss_det_matches_leibniz():
    rng = random.Random(5)
    for n in range(1, 5):
        m = [[(Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3))) for _ in range(n)] for _ in range(n)]
        total = [Fraction(0), Fraction(0)]
        for perm in itertools.permutations(range(n)):
            sign = (-1) ** sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            term = (Fraction(sign), Fraction(0))
            for i in range(n):
                a = m[i][perm[i]]
                term = (term[0] * a[0] - term[1] * a[1], term[0] * a[1] + term[1] * a[0])
            total = [total[0] + term[0], total[1] + term[1]]
        assert groups.gauss_det(m) == tuple(total)


# -- parsers ----------------------------------------------------------------


def test_parse_element_inverts_cycle_notation():
    from korbits.weyl import SignedPerm

    for kind, rank in SMALL_GROUPS:
        for w in groups.elements(kind, rank):
            assert parse_element(SignedPerm(w).cycle_string(), rank) == w


def test_parse_gauss_inverts_printing():
    from korbits.dyadic import Dyadic, DyadicGauss

    for re_, im in itertools.product([(0, 0), (1, 0), (-3, -2), (5, 1), (-1, 3)], repeat=2):
        z = DyadicGauss(Dyadic(*re_), Dyadic(*im))
        want = (Fraction(re_[0]) * Fraction(2) ** re_[1], Fraction(im[0]) * Fraction(2) ** im[1])
        assert parse_gauss(str(z)) == want


# -- checks on real and damaged output ------------------------------------


def _queries():
    out = []
    for family, params in SMALL_INSTANCES:
        for command in ("twisted", "orbits", "classify-tori", "verify"):
            for fmt in ("table", "json"):
                out.append(workloads._q(command, family, params, fmt))
        out.append(workloads._q("twisted", family, params, "dot"))
    return out


@pytest.mark.parametrize("query", _queries(), ids=lambda q: " ".join(q.argv))
def test_checker_accepts_program_output(korbits, query):
    cli, catalog = korbits
    checker = checker_for(catalog, query.family, query.params)
    assert checker.check(query, *cli_output(cli, query)) == []


def test_checker_accepts_refusals(korbits):
    cli, catalog = korbits
    checker = checker_for(catalog, "GL", (3,))
    for query in (
        workloads._q("orbits", "GL", (3,), "table"),
        Query("twisted", "Upq", (1, 2), "json", workloads.EXIT_USAGE),
    ):
        assert checker.check(query, *cli_output(cli, query)) == []
    wrong = Query("orbits", "GL", (3,), "table", workloads.EXIT_OK)
    assert checker.check(wrong, *cli_output(cli, wrong))


def _damaged_json(out: str, edit) -> str:
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload)


def _swap_partners(rows):
    """Exchange the partners of two Galois pairs of one torus."""
    first = next(r for r in rows if r["partner"])
    other = next(
        r
        for r in rows
        if r["partner"]
        and r["torus_class"] == first["torus_class"]
        and r["partner"] not in (first["partner"], first["representative"])
    )
    first["partner"], other["partner"] = other["partner"], first["partner"]


DAMAGE = [
    ("twisted", "GL", (4,), lambda p: p["rows"].pop()),
    ("twisted", "Upq", (3, 1), lambda p: p["rows"][0].update(in_image=not p["rows"][0]["in_image"])),
    ("twisted", "SOeven1", (3,), lambda p: p["rows"][-1].update(length=p["rows"][-1]["length"] + 1)),
    ("twisted", "Ustar", (2,), lambda p: p["summary"].update(a_max="e")),
    ("orbits", "Upq", (2, 2), lambda p: p["rows"][1].update(springer_value=p["rows"][0]["springer_value"])),
    ("orbits", "SL2n", (2,), lambda p: p["rows"][0].update(coset_size=p["rows"][0]["coset_size"] + 1)),
    ("orbits", "Upq", (3, 1), lambda p: p["rows"].pop()),
    ("orbits", "Upq", (2, 2), lambda p: _swap_partners(p["rows"])),
    ("classify-tori", "GL", (4,), lambda p: p["rows"][0].update(class_size=p["rows"][0]["class_size"] + 1)),
    ("classify-tori", "Upq", (2, 2), lambda p: p["rows"][0].update(minus_dimension=0)),
    ("verify", "Upq", (2, 1), lambda p: p["rows"][2].update(detail="det = 3")),
    ("verify", "SOeven1", (2,), lambda p: p["rows"][0].update(ok=False)),
]


@pytest.mark.parametrize("command,family,params,edit", DAMAGE)
def test_checker_rejects_damaged_json(korbits, command, family, params, edit):
    cli, catalog = korbits
    query = workloads._q(command, family, params, "json")
    status, out, err = cli_output(cli, query)
    checker = checker_for(catalog, family, params)
    assert checker.check(query, status, out, err) == []
    assert checker.check(query, status, _damaged_json(out, edit), err)


def test_checker_rejects_damaged_table_and_dot(korbits):
    cli, catalog = korbits
    checker = checker_for(catalog, "GL", (4,))
    table = workloads._q("twisted", "GL", (4,), "table")
    status, out, err = cli_output(cli, table)
    lines = out.split("\n")
    assert checker.check(table, status, "\n".join(lines[:3] + lines[4:]), err)
    dot = workloads._q("twisted", "GL", (4,), "dot")
    status, out, err = cli_output(cli, dot)
    assert checker.check(dot, status, out.replace('[label="s1"]', '[label="s2"]', 1), err)
    edges = [ln for ln in out.split("\n") if "->" in ln]
    assert checker.check(dot, status, out.replace(edges[0] + "\n", ""), err)


# -- workloads, tracer and the benchmark file --------------------------------


def test_rounds_depend_on_the_seed_only_in_order_and_formats():
    def work(round_):
        return sorted((q.command, q.family, q.params) for q in round_ if q.expect != workloads.EXIT_USAGE)

    for name in workloads.WORKLOADS:
        assert workloads.make_round(name, 3) == workloads.make_round(name, 3)
        assert work(workloads.make_round(name, 3)) == work(workloads.make_round(name, 4))
    mix = workloads.make_round("cli-mix", 1)
    assert len(mix) >= 200
    assert {q.command for q in mix} == {"twisted", "orbits", "classify-tori", "verify"}
    assert {q.family for q in mix} == set(workloads.PARAM_NAMES)
    assert {q.fmt for q in mix} == {"table", "json"}
    for q in mix:
        if q.expect != workloads.EXIT_USAGE:
            kind, rank = groups.group_of(q.family, q.params)
            assert groups.order(kind, rank) <= 5040


def test_tracer_accounts_for_spans_and_repeats_counts(korbits):
    cli, _ = korbits
    import sys

    modules = {layer: sys.modules[f"korbits.{layer}"] for layer in tracer_mod.LAYERS}
    original = modules["catalog"].enumerate_subgroup
    tr = tracer_mod.Tracer(modules)
    tr.install()
    try:
        rounds = []
        for _ in range(2):
            tr.reset()
            for argv in (["verify", "--family", "SL2n", "--n", "2"], ["orbits", "--family", "Upq", "--p", "2", "--q", "1"]):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
            metrics = tr.layer_metrics()
            covered = sum(metrics[f"{layer}.self_s"] for layer in tracer_mod.LAYERS)
            assert covered == pytest.approx(tr.root_time, rel=1e-9)
            assert metrics["cli.calls"] == 2 and len([s for s in tr.spans if s[4] == -1]) == 2
            rounds.append({k: v for k, v in metrics.items() if not k.endswith("self_s")})
    finally:
        tr.uninstall()
    assert rounds[0] == rounds[1]
    assert rounds[0]["dyadic.dets"] > 0 and rounds[0]["descent.params"] == groups.upq_clans(2, 1)
    assert modules["catalog"].enumerate_subgroup is original


def test_benchmark_file_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in tracer_mod.PER_LAYER_METRICS]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "run_s", "peak_rss_mib", "query_p50_ms", "query_p95_ms"
    }


def test_accounting_needs_one_cli_span_inside_each_query():
    good = {
        "latencies": [1.0, 2.0],
        "spans": [("cli", "main", 0.0, 0.95, -1), ("weyl", "elements", 0.1, 0.2, 0), ("cli", "main", 1.0, 2.9, -1)],
        "root": 2.85,
    }
    run.check_accounting(good)
    missing = dict(good, spans=good["spans"][:2], root=0.95)
    outside = dict(good, spans=[("weyl", "elements", 0.0, 0.95, -1)] + good["spans"][1:])
    too_long = dict(good, latencies=[0.9, 2.0])
    uncovered = dict(good, root=2.0)
    for record in (missing, outside, too_long, uncovered):
        with pytest.raises(RuntimeError):
            run.check_accounting(record)


def test_clock_removes_probes_and_scales_by_their_mean():
    clock = speed.Clock()
    # Probes of 0.2 ms at t = 1.0, 1.1, ..., 1.9: a CPU at half the speed
    # of the reference one.
    clock.starts = [1.0 + i / 10 for i in range(10)]
    clock.probes = [2 * speed.PROBE_S] * 10
    wall, scaled = clock.times(1.05, 1.55)
    assert wall == pytest.approx(0.5 - 5 * 2 * speed.PROBE_S)
    assert scaled == pytest.approx(wall / 2)
    # A piece with no probe inside is scaled by the three nearest.
    clock.probes[6:9] = [speed.PROBE_S] * 3
    wall, scaled = clock.times(1.71, 1.72)
    assert wall == pytest.approx(0.01)
    assert scaled == pytest.approx(wall)
    assert clock.times(2.5, 2.6)[1] == pytest.approx(0.1 * speed.PROBE_S / statistics.mean(clock.probes[7:]))


def test_clock_probes_while_active():
    with speed.Clock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * speed.INTERVAL_S:
            pass
        end = time.perf_counter()
    assert clock.times(start, end)[0] < end - start
    assert len(clock.probes) >= 5
