import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

import korbits.twisted
from korbits.cli import main as korbits_main
from korbits.twisted import (
    ReachabilityGraph,
    TwistContext,
    image_set,
    is_twisted_involution,
    springer_value,
    twisted_involutions,
)
from korbits.weyl import SubgroupTooLarge, identity, sign_flip, symmetric_group
from oracle import (
    all_elements,
    monoid_star,
    naive_canonical_key,
    naive_cycle_string,
    naive_length,
    naive_springer_value,
    naive_theta,
    naive_twisted,
    reachable_set,
)
from support import flip, perm, tr

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from golden_outputs import command_line  # noqa: E402
from orbit_census import instances  # noqa: E402


def _gl_context(n):
    group = symmetric_group(n)
    return TwistContext(group, sign_flip(range(1, n + 1), n), group.longest_element())


CTX3 = _gl_context(3)


def test_context_validation():
    s3 = symmetric_group(3)
    with pytest.raises(ValueError):
        TwistContext(s3, sign_flip([1, 2, 3], 3), perm(2, 3, 1))
    with pytest.raises(ValueError):
        TwistContext(s3, identity(3), flip((1,), 3))
    with pytest.raises(ValueError):
        TwistContext(s3, tr(1, 2, 3), identity(3))


def test_simple_theta_matches_naive_theta():
    """theta of every simple reflection, read as the index of the image of
    its root, on every census instance with |W| <= 5040."""
    specs = list(instances(5040))
    assert len(specs) > 30
    for spec in specs:
        ctx = spec.context
        simples = ctx.group.simple_reflections()
        got = {s: simples[k] for s, k in zip(simples, ctx._simple_theta, strict=True)}
        assert got == {s: naive_theta(ctx, s) for s in simples}, spec.name


def test_involution_set_rank3():
    want = {perm(1, 2, 3), perm(2, 3, 1), perm(3, 1, 2), perm(3, 2, 1)}
    assert twisted_involutions(CTX3) == want
    for w in want:
        assert is_twisted_involution(CTX3, w)
    assert not is_twisted_involution(CTX3, tr(1, 2, 3))


def test_involution_set_matches_naive_filter():
    got = twisted_involutions(CTX3)
    assert got == naive_twisted(all_elements("A", 3), CTX3.twist, CTX3.base)
    # the raw twist is trivial on permutations, so the identity twist agrees
    assert got == naive_twisted(all_elements("A", 3), identity(3), CTX3.base)


def test_small_contexts():
    ctx2 = TwistContext(symmetric_group(2), identity(2), identity(2))
    assert twisted_involutions(ctx2) == {identity(2), tr(1, 2, 2)}
    ctx1 = TwistContext(symmetric_group(1), identity(1), identity(1))
    assert twisted_involutions(ctx1) == {identity(1)}


def test_monoid_star_moves():
    s1, s2 = CTX3.group.simple_reflections()
    assert monoid_star(CTX3, s1, identity(3)) == perm(2, 3, 1)
    assert monoid_star(CTX3, s2, identity(3)) == perm(3, 1, 2)
    top = perm(3, 2, 1)
    assert monoid_star(CTX3, s1, top) == top
    assert monoid_star(CTX3, s2, top) == top


def test_monoid_star_rejects_non_simple_reflection():
    with pytest.raises(ValueError, match="not a simple reflection"):
        monoid_star(CTX3, tr(1, 3, 3), identity(3))


@given(st.data())
def test_monoid_star_laws(data):
    ctx = _gl_context(4)
    nodes = sorted(twisted_involutions(ctx), key=lambda w: w.images)
    a = data.draw(st.sampled_from(nodes))
    s = data.draw(st.sampled_from(list(ctx.group.simple_reflections())))
    out = monoid_star(ctx, s, a)
    assert is_twisted_involution(ctx, out)
    assert monoid_star(ctx, s, out) == out
    delta = ctx.group.length(out) - ctx.group.length(a)
    assert delta in (0, 1, 2)


def test_reachability_and_image():
    inv = twisted_involutions(CTX3)
    top = perm(3, 2, 1)
    assert reachable_set(CTX3, identity(3)) == inv
    assert image_set(CTX3, top) == inv
    assert image_set(CTX3, identity(3)) == {identity(3)}
    with pytest.raises(ValueError):
        image_set(CTX3, tr(1, 2, 3))


def test_image_set_agrees_with_per_element_closure():
    ctx = _gl_context(4)
    top = ctx.group.longest_element()
    by_bfs = image_set(ctx, top)
    by_closure = {
        a for a in twisted_involutions(ctx) if top in reachable_set(ctx, a)
    }
    assert by_bfs == by_closure


def test_springer_value_formula():
    ctx = TwistContext(
        symmetric_group(2), sign_flip([1, 2], 2), tr(1, 2, 2)
    )
    e = identity(2)
    assert springer_value(ctx, e, e) == tr(1, 2, 2)
    assert springer_value(ctx, tr(1, 2, 2), e) == e
    assert springer_value(ctx, tr(1, 2, 2), tr(1, 2, 2)) == e


def test_springer_value_rejects_non_involution_values():
    with pytest.raises(ValueError):
        springer_value(CTX3, perm(2, 3, 1), identity(3))


@pytest.mark.parametrize(
    "torus_element,inside,message",
    [
        # v = c w0 = (2 3) lies in S3, but theta(v) v is not e
        (perm(2, 3, 1), True, "value SignedPerm(1, 3, 2) is not a twisted involution"),
        # a sign flip carries v = c w0 out of S3
        (flip((1,), 3), False, "value SignedPerm(3, 2, -1) is not a twisted involution"),
    ],
)
def test_springer_value_refusals_match_oracle(torus_element, inside, message):
    # the twist of CTX3 is central, so at w = e the value is c b; a refused
    # value is never stored, so a second call refuses it alike
    assert CTX3.group.contains(torus_element * CTX3.base) is inside
    for route in (springer_value, springer_value, naive_springer_value):
        with pytest.raises(ValueError) as err:
            route(CTX3, torus_element, identity(3))
        assert str(err.value) == message


def test_reachability_graph():
    graph = ReachabilityGraph.build(CTX3)
    assert set(graph.nodes) == twisted_involutions(CTX3)
    length = CTX3.group.length
    for a, idx, b in graph.edges:
        assert 1 <= idx <= 2
        assert length(b) > length(a)
        assert monoid_star(CTX3, CTX3.group.simple_reflections()[idx - 1], a) == b
    dot = graph.to_dot()
    assert dot.startswith("digraph twisted {")
    assert dot.count("label=") == len(graph.nodes) + len(graph.edges)


@pytest.mark.parametrize("spec", list(instances(46080)), ids=lambda spec: spec.name)
def test_twisted_rows_in_length_then_canonical_order(spec, capsys):
    """``twisted`` lists its rows by length, then by the oracle's canonical
    key, in table and json form, on every census instance."""
    group = spec.group
    involutions = twisted_involutions(spec.context)
    by_name = {naive_cycle_string(w): w for w in involutions}
    assert len(by_name) == len(involutions)
    lengths = {w: naive_length(group.kind, group.rank, w) for w in involutions}
    want = sorted(involutions, key=lambda w: (lengths[w], naive_canonical_key(w)))
    for fmt in ("table", "json"):
        assert korbits_main(command_line("twisted", spec.family, spec.params, fmt)) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            rows = [(r["element"], r["length"]) for r in json.loads(out)["rows"]]
        else:
            # the rows lie between the dashes and the summary line
            lines = out.splitlines()[3:-1]
            rows = [(c[0], int(c[1])) for c in (re.split(r"\s{2,}", x) for x in lines)]
        got = [by_name[name] for name, _ in rows]
        assert got == want, (spec.name, fmt)
        assert [ell for _, ell in rows] == [lengths[w] for w in want], (spec.name, fmt)


def test_sweep_refuses_past_the_cap(monkeypatch):
    # GL(4) has 10 twisted involutions; the sweep counts them as it inserts
    monkeypatch.setattr(korbits.twisted, "SUBGROUP_CAP", 9)
    with pytest.raises(SubgroupTooLarge, match=r"^closure exceeds cap 9$"):
        _gl_context(4)._sweep
    monkeypatch.setattr(korbits.twisted, "SUBGROUP_CAP", 10)
    assert len(_gl_context(4)._sweep[0]) == 10
