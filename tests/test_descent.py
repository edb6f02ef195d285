import itertools
import sys
from pathlib import Path

import pytest

from korbits.catalog import (
    MissingWkData,
    OrbitParam,
    TorusDescriptor,
    a_max,
    coset_table,
    orbit_parameters,
    springer,
    verify_matrix_claims,
)
from korbits.descent import (
    FIELD_FIXED,
    FIELD_PAIR,
    DescentRow,
    GaloisAction,
    NotAnInvolution,
    _rule,
    descent_report,
    fixed_and_pairs,
    galois_action,
)
from korbits.twisted import ReachabilityGraph, image_set
from korbits.weyl import CosetTable, canonical_key, enumerate_subgroup
from oracle import all_elements, rational_parameters
from support import cached_build, perm, tr

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from orbit_census import instances  # noqa: E402

WITH_GALOIS = [
    ("SL2n", (2,)),
    ("SL2n", (3,)),
    ("SOodd1", (2,)),
    ("SOeven1", (2,)),
    ("Upq", (2, 1)),
    ("Upq", (2, 2)),
    ("Restriction", (2,)),
    ("Restriction", (3,)),
]

UPQ_RANGE = [(p, q) for q in range(1, 4) for p in range(q, 7 - q)]
# every U(p,q) with p >= q >= 1 and p + q <= 8
UPQ_LAW_RANGE = [(p, q) for q in range(1, 5) for p in range(q, 9 - q)]


def test_missing_galois_data():
    # GL(3) and U*(4) have no W_K data, so no coset table to act on
    for family, n in [("GL", 3), ("Ustar", 2)]:
        with pytest.raises(MissingWkData, match="no little-Weyl-group data"):
            galois_action(cached_build(family, n), 0)


@pytest.mark.parametrize("family,params", WITH_GALOIS)
def test_action_is_involution_of_the_representative_set(family, params):
    spec = cached_build(family, *params)
    for i in range(len(spec.tori)):
        action = galois_action(spec, i)
        reps = set(action.domain)
        assert set(action.mapping) == reps
        for rep in reps:
            img = action.mapping[rep]
            assert img in reps
            assert action.mapping[img] == rep


@pytest.mark.parametrize("family,params", WITH_GALOIS)
def test_rule_descends_to_cosets(family, params):
    # applying the raw rule to any member of a coset lands in one coset
    spec = cached_build(family, *params)
    for i in range(len(spec.tori)):
        desc = spec.descriptor(i)
        if desc.wk is None:
            continue
        table, rule = coset_table(spec, i), _rule(desc)
        targets = {}
        for x in all_elements(spec.group.kind, spec.group.rank):
            targets.setdefault(table.canon(x), set()).add(table.canon(rule(x)))
        assert all(len(t) == 1 for t in targets.values())


#: Every census instance with W_K data and |W| <= 5040, then SL(10)/Sp and
#: U(5,4), as (family, params).
WITH_WK = [
    (spec.family, spec.params)
    for spec in instances(5040)
    if any(desc.wk is not None for desc in spec.tori)
] + [("SL2n", (5,)), ("Upq", (5, 4))]


@pytest.mark.parametrize("family,params", WITH_WK)
def test_action_is_the_raw_rule_reduced_by_canon(family, params):
    # the action takes no minimal image where the rule's left factor lies in
    # W_K, yet it is still canon of the raw rule on every representative
    spec = cached_build(family, *params)
    for desc in spec.tori:
        if desc.wk is None:
            continue
        table, rule = coset_table(spec, desc.index), _rule(desc)
        want = {rep: table.canon(rule(rep)) for rep in table.reps}
        assert galois_action(spec, desc.index).mapping == want


@pytest.mark.parametrize(
    "family,per_rep",
    [("SL2n", False), ("SOeven1", False), ("Restriction", False),
     ("Upq", True), ("SOodd1", True)],
)
def test_minimal_images_per_torus_or_per_rep(monkeypatch, family, per_rep):
    # SL(2n)/Sp, SO(2n,1) and Res(r) take at most one minimal image per
    # torus, the test of the left factor; U(p,q) (a right factor w0) and
    # SO(2n+1,1) (a left factor outside W) one per representative.  The one
    # exception is the SL(2n)/Sp torus with all n blocks flipped at odd n,
    # whose c lies outside W_K (see test_sl2n_triviality_threshold).
    calls = []
    canon = CosetTable.canon

    def counting(table, x):
        calls.append(x)
        return canon(table, x)

    monkeypatch.setattr(CosetTable, "canon", counting)
    specs = [spec for spec in instances(5040) if spec.family == family]
    assert len(specs) >= 3
    for spec in specs:
        for desc in spec.tori:
            calls.clear()
            action = galois_action(spec, desc.index)
            odd_top = family == "SL2n" and spec.params[0] % 2 == 1
            if per_rep:
                assert len(calls) == len(action.domain), spec.name
            elif odd_top and desc.index == spec.params[0]:
                assert len(calls) == 1 + len(action.domain), spec.name
            else:
                assert len(calls) <= 1, spec.name


def test_fixed_and_pairs_rejects_non_involutions():
    a, b, c = perm(1, 2, 3), perm(2, 3, 1), perm(3, 1, 2)
    cyclic = GaloisAction(domain=(a, b, c), mapping={a: b, b: c, c: a})
    with pytest.raises(NotAnInvolution):
        fixed_and_pairs(cyclic)


def test_fixed_and_pairs_rejects_points_outside_the_mapping():
    """A point sent outside the domain, or given no image, is named in a
    NotAnInvolution, never a KeyError."""
    a, b, c = perm(1, 2, 3), perm(2, 3, 1), perm(3, 1, 2)
    escapes = GaloisAction(domain=(a, b), mapping={a: c, b: b}, name="escapes")
    with pytest.raises(NotAnInvolution, match=r"^escapes does not map SignedPerm\(1, 2, 3"):
        fixed_and_pairs(escapes)
    partial = GaloisAction(domain=(a, b), mapping={a: b})
    with pytest.raises(NotAnInvolution, match=r"^action does not map SignedPerm\(2, 3, 1"):
        fixed_and_pairs(partial)


def test_fixed_and_pairs_counts():
    a, b, c = perm(1, 2, 3), perm(2, 3, 1), perm(3, 1, 2)
    action = GaloisAction(domain=(a, b, c), mapping={a: a, b: c, c: b})
    fixed, pairs = fixed_and_pairs(action)
    assert fixed == (a,)
    assert pairs == ((b, c),)


def test_result_records_refuse_field_assignment():
    spec = cached_build("Upq", 2, 1)
    report = descent_report(spec)
    records = [
        orbit_parameters(spec)[0],
        verify_matrix_claims(spec)[0],
        spec.torus_classes()[0],
        galois_action(spec, 0),
        report.rows[0],
        report,
        ReachabilityGraph.build(spec.context),
    ]
    assert len({type(record) for record in records}) == 7
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_sl2_descent_frozen():
    report = descent_report(cached_build("SL2n", 1))
    assert (report.fixed_count, report.pair_count) == (1, 1)
    fields = [row.field for row in report.rows]
    assert fields.count(FIELD_FIXED) == 1 and fields.count(FIELD_PAIR) == 2
    for row in report.rows:
        assert (row.partner is None) == (row.field == FIELD_FIXED)


def test_sl2n_triviality_threshold():
    # the twist class lands in the little Weyl group iff fewer than n blocks
    # are flipped, or n is even
    def trivial(action):
        return all(img == w for w, img in action.mapping.items())

    spec2 = cached_build("SL2n", 2)
    assert all(trivial(galois_action(spec2, i)) for i in range(len(spec2.tori)))
    spec3 = cached_build("SL2n", 3)
    for i in range(3):
        assert trivial(galois_action(spec3, i))
    top = galois_action(spec3, 3)
    assert not trivial(top)
    fixed, pairs = fixed_and_pairs(top)
    assert fixed == ()
    assert len(pairs) == 15


def test_u21_descent_frozen():
    spec = cached_build("Upq", 2, 1)
    report = descent_report(spec)
    assert (report.fixed_count, report.pair_count) == (2, 2)
    rows0 = [r for r in report.rows if r.torus_index == 0]
    fixed0 = [r for r in rows0 if r.field == FIELD_FIXED]
    assert [r.rep for r in fixed0] == [tr(1, 2, 3)]
    assert [r.value for r in fixed0] == [tr(1, 3, 3)]
    paired0 = {r.rep: r.partner for r in rows0 if r.field == FIELD_PAIR}
    assert paired0 == {perm(1, 2, 3): perm(2, 3, 1), perm(2, 3, 1): perm(1, 2, 3)}
    rows1 = [r for r in report.rows if r.torus_index == 1]
    assert {r.rep for r in rows1 if r.field == FIELD_FIXED} == {tr(2, 3, 3)}


@pytest.mark.parametrize(
    "family,params",
    [("SOodd1", (1,)), ("SOodd1", (3,)), ("SOeven1", (3,)), ("Restriction", (3,))],
)
def test_everything_rational_families(family, params):
    report = descent_report(cached_build(family, *params))
    assert report.pair_count == 0
    assert all(row.field == FIELD_FIXED for row in report.rows)


@pytest.mark.parametrize("family,params", WITH_GALOIS)
def test_descent_counting_identity(family, params):
    spec = cached_build(family, *params)
    report = descent_report(spec)
    assert report.fixed_count + 2 * report.pair_count == len(report.rows)
    assert len(report.rows) == len(orbit_parameters(spec))
    # each row starts with its orbit parameter's fields, in their order
    assert DescentRow._fields[:5] == OrbitParam._fields
    assert [row[:5] for row in report.rows] == list(orbit_parameters(spec))
    for row in report.rows:
        if row.partner is not None:
            back = [
                r
                for r in report.rows
                if r.torus_index == row.torus_index and r.rep == row.partner
            ]
            assert len(back) == 1 and back[0].partner == row.rep


# -- the hermitian tower, exhaustively --------------------------------------


@pytest.mark.parametrize("p,q", UPQ_LAW_RANGE)
def test_membership_route_agrees_with_action_route(p, q):
    spec = cached_build("Upq", p, q)
    for i in range(len(spec.tori)):
        by_membership = set(rational_parameters(spec, i))
        by_action = set(fixed_and_pairs(galois_action(spec, i))[0])
        assert by_membership == by_action


@pytest.mark.parametrize("p,q", UPQ_LAW_RANGE)
def test_emptiness_pattern(p, q):
    # the fixed part of torus i is empty exactly when p-q is even and i odd,
    # by the membership route and by the action route alike
    spec = cached_build("Upq", p, q)
    for i in range(len(spec.tori)):
        law = (p - q) % 2 == 0 and i % 2 == 1
        assert (not rational_parameters(spec, i)) == law
        assert (not fixed_and_pairs(galois_action(spec, i))[0]) == law


def test_u22_even_even_is_nonempty():
    # the even/even instance (p-q = 0, i = 0) carries a rational parameter:
    # the full pairing is itself conjugate to the longest element
    spec = cached_build("Upq", 2, 2)
    w0 = spec.group.longest_element()
    wk = enumerate_subgroup(spec.descriptor(0).wk_generators)
    fixed = rational_parameters(spec, 0)
    assert len(fixed) > 0
    for rep in fixed:
        assert rep * w0 * rep.inverse() in wk
    tau = perm(3, 4, 1, 2)
    assert tau in wk and (tau * tau).is_identity()


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_q1_fixed_values(p):
    n = p + 1
    spec = cached_build("Upq", p, 1)
    report = descent_report(spec)
    fixed_values = {
        r.value for r in report.rows if r.torus_index == 0 and r.field == FIELD_FIXED
    }
    want = {tr(i, p + 2 - i, n) for i in range(1, (p + 2) // 2 + 1) if i != p + 2 - i}
    assert fixed_values == want


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_q1_value_inverse_formula(p):
    # (i j) pulls back to the parameter that first sends j to slot p+1 and
    # then i to slot p (left factor applied second in our composition order)
    n = p + 1
    spec = cached_build("Upq", p, 1)
    for i, j in itertools.combinations(range(1, p + 2), 2):
        w = tr(i, p, n) * tr(j, p + 1, n)
        assert springer(spec, 0, w) == tr(i, j, n)


@pytest.mark.parametrize("p,q", UPQ_RANGE)
def test_split_torus_values_intertwine(p, q):
    # conjugating the parameter by the action matches conjugating the value
    spec = cached_build("Upq", p, q)
    w0 = spec.group.longest_element()
    action = galois_action(spec, 0)
    for rep in action.domain:
        lhs = springer(spec, 0, action.mapping[rep])
        rhs = w0 * springer(spec, 0, rep) * w0
        assert lhs == rhs


# -- the twisted-side conjugation -------------------------------------------


def test_twisted_galois_trivial_rule():
    # SO(5,1)'s conjugation fixes every coset, and the values lie in the
    # twisted image
    spec = cached_build("SOodd1", 2)
    fixed, pairs = fixed_and_pairs(galois_action(spec, 0))
    assert fixed == coset_table(spec, 0).reps and pairs == ()
    values = {springer(spec, 0, rep) for rep in fixed}
    assert values <= image_set(spec.context, a_max(spec))


def test_twisted_galois_conj_w0_on_image():
    # a -> w0 a^-1 w0 fixes the twisted image of U*(4)
    spec = cached_build("Ustar", 2)
    w0 = spec.group.longest_element()
    image = image_set(spec.context, a_max(spec))
    assert len(image) == 3
    for a in image:
        assert w0 * a.inverse() * w0 == a


def test_twisted_galois_twist_conj():
    spec = cached_build("Upq", 2, 1)
    values = tuple(
        sorted(
            {p.value for p in orbit_parameters(spec)},
            key=canonical_key,
        )
    )
    w0 = spec.group.longest_element()
    mapping = {v: w0 * v * w0 for v in values}
    assert set(mapping.values()) == set(values)
    fixed, pairs = fixed_and_pairs(GaloisAction(domain=values, mapping=mapping))
    assert set(fixed) == {tr(1, 3, 3), perm(1, 2, 3)}
    assert pairs == ((tr(2, 3, 3), tr(1, 2, 3)),)


def test_twisted_galois_unknown_rule_and_escape():
    # a raw rule image outside the representative list is brought back by
    # canon
    spec = cached_build("Upq", 2, 1)
    desc, table = spec.descriptor(0), coset_table(spec, 0)
    action = galois_action(spec, 0)
    escaped = [r for r in table.reps if _rule(desc)(r) not in table.reps]
    assert escaped
    for rep in escaped:
        assert action.mapping[rep] == table.canon(_rule(desc)(rep))
        assert action.mapping[rep] in table.reps


# -- a synthetic nontrivial block-swap conjugation ---------------------------


def test_apply_rule_with_conjugation_factor():
    tau = perm(3, 4, 1, 2)
    desc = TorusDescriptor(
        index=0,
        twist_class=perm(1, 2, 3, 4),
        galois_conj=tau,
        galois_left=perm(2, 1, 3, 4),
        galois_right=perm(1, 2, 4, 3),
    )
    w = perm(2, 1, 3, 4)
    want = desc.galois_left * (tau * w * tau.inverse()) * desc.galois_right
    assert _rule(desc)(w) == want


@pytest.mark.parametrize(
    "conj,left,right",
    itertools.product(
        [None, perm(3, 4, 1, 2)], [None, perm(2, 1, 3, 4)], [None, perm(-1, 2, 4, 3)]
    ),
)
def test_rule_folds_the_conjugation_into_its_factors(conj, left, right):
    # every combination of present and absent factors gives the rule applied
    # factor by factor: conjugate, then multiply on the left and the right
    desc = TorusDescriptor(
        index=0,
        twist_class=perm(1, 2, 3, 4),
        galois_conj=conj,
        galois_left=left,
        galois_right=right,
    )
    rule = _rule(desc)
    for w in all_elements("B", 4):
        want = w if conj is None else conj * w * conj.inverse()
        want = want if left is None else left * want
        assert rule(w) == (want if right is None else want * right)


def test_synthetic_block_swap_action_on_restriction_cosets():
    # swapping the two blocks by conjugation pairs the cosets whose block
    # ratio is not an involution: 4 fixed cosets and 1 swapped pair at r=3
    spec = cached_build("Restriction", 3)
    tau = perm(4, 5, 6, 1, 2, 3)
    table = coset_table(spec, 0)
    mapping = {rep: table.canon(tau * rep * tau.inverse()) for rep in table.reps}
    action = GaloisAction(domain=table.reps, mapping=mapping)
    fixed, pairs = fixed_and_pairs(action)
    assert len(fixed) == 4
    assert len(pairs) == 1
