"""Fast routines against the brute-force references in oracle.py.

Every test here runs the same computation twice — once through the package,
once through full enumeration — and requires exact set equality.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import korbits.catalog
import korbits.twisted
import korbits.weyl
from korbits.catalog import (
    MissingWkData,
    a_max,
    build,
    coset_table,
    orbit_parameters,
    springer,
)
from korbits.descent import GaloisAction, fixed_and_pairs, galois_action
from korbits.tori import ThetaLattice, _simple_lines, root_lines, torus_classification
from korbits.twisted import (
    ReachabilityGraph,
    image_set,
    involution_lengths,
    involution_levels,
    twisted_involutions,
)
from korbits.weyl import (
    CosetTable,
    SignedPerm,
    WeylGroup,
    canonical_key,
    conjugacy_classes,
    enumerate_subgroup,
    even_hyperoctahedral_group,
    hyperoctahedral_group,
    product_symmetric_group,
    sign_flip,
    symmetric_group,
    transposition,
)
from oracle import (
    _rank,
    all_elements,
    all_lines_torus_classes,
    closure_sweep,
    monoid_star,
    naive_conjugacy,
    naive_cosets,
    naive_galois_orbits,
    naive_length,
    naive_monoid_star,
    naive_springer_value,
    naive_subgroup,
    naive_theta,
    naive_torus_classes,
    naive_twisted,
    psi0,
    reachable_set,
    reverse_closure_image,
)
from support import (
    assert_root_lines_match_dense,
    cached_build,
    canon_blocks,
    conjugations,
    sorted_elements,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from orbit_census import instances  # noqa: E402

# catalog instances with |W| <= 2^5 * 5! = 3840
SMALL = (
    [("GL", (n,)) for n in range(1, 7)]
    + [("SL2n", (n,)) for n in (1, 2, 3)]
    + [("Ustar", (n,)) for n in (1, 2, 3)]
    + [("SOodd1", (n,)) for n in range(1, 5)]
    + [("SOeven1", (n,)) for n in range(1, 6)]
    + [("Upq", (p, q)) for q in range(1, 4) for p in range(q, 7 - q)]
    + [("Restriction", (r,)) for r in range(1, 5)]
)

# catalog instances with |W| <= 2^6 * 6! = 46080
LARGE = SMALL + [("GL", (7,)), ("Ustar", (4,)), ("SOodd1", (5,))]

# the census instances whose torus oracle runs in under about 0.5 s (GL(6)
# takes 4 s; test_tori.py checks GL(6), GL(7) and GL(8) against closed forms)
TORI = (
    [("GL", (n,)) for n in range(1, 6)]
    + [("SL2n", (n,)) for n in range(1, 5)]
    + [("Ustar", (n,)) for n in range(1, 5)]
    + [("SOodd1", (n,)) for n in range(1, 7)]
    + [("SOeven1", (n,)) for n in range(1, 7)]
    + [("Upq", (p, q)) for q in range(1, 4) for p in range(q, 8 - q)]
    + [("Restriction", (r,)) for r in range(1, 6)]
)

# every instance of scripts/orbit_census.py --max-order 46080
CENSUS = [(spec.family, spec.params) for spec in instances(46080)]

RANDOM_GROUPS = [
    symmetric_group(3),
    symmetric_group(4),
    symmetric_group(5),
    hyperoctahedral_group(2),
    hyperoctahedral_group(3),
    even_hyperoctahedral_group(3),
    product_symmetric_group(2),
    product_symmetric_group(3),
]


def _instance_id(case):
    family, params = case
    return family + "-" + "x".join(str(p) for p in params)


@pytest.mark.parametrize(
    "group",
    [
        symmetric_group(4),
        hyperoctahedral_group(3),
        even_hyperoctahedral_group(3),
        even_hyperoctahedral_group(4),
        product_symmetric_group(3),
    ],
    ids=lambda g: g.describe(),
)
def test_enumeration_matches_itertools(group):
    # the trivial subgroup's representatives and the closure of the simple
    # reflections are both all of W; the representatives come in
    # canonical_key order, one sign vector's bucket after another
    elements = all_elements(group.kind, group.rank)
    reps = CosetTable([], group).reps
    assert set(reps) == elements and len(reps) == group.order
    assert reps == tuple(sorted(elements, key=canonical_key))
    assert reps[0] == group.identity()
    assert enumerate_subgroup(group.simple_reflections()) == elements


@pytest.mark.parametrize("case", SMALL, ids=_instance_id)
def test_twisted_involutions_match_naive_filter(case):
    spec = cached_build(case[0], *case[1])
    ctx = spec.context
    naive = naive_twisted(
        all_elements(spec.group.kind, spec.group.rank), ctx.twist, ctx.base
    )
    assert twisted_involutions(ctx) == naive


@pytest.mark.parametrize("case", SMALL, ids=_instance_id)
def test_monoid_star_matches_length_comparison(case):
    spec = cached_build(case[0], *case[1])
    ctx, group = spec.context, spec.group

    def length(w):
        return naive_length(group.kind, group.rank, w)

    for s in ctx.group.simple_reflections():
        theta_s = naive_theta(ctx, s)
        for a in twisted_involutions(ctx):
            assert monoid_star(ctx, s, a) == naive_monoid_star(length, s, theta_s, a)


@pytest.mark.parametrize("case", SMALL, ids=_instance_id)
def test_sweep_moves_match_naive_monoid_star(case):
    """Every move the sweep records, and every length it carries, against
    products and root counts: B's short root e_n, D's e_(n-1) + e_n and
    AxA's two blocks included."""
    spec = cached_build(case[0], *case[1])
    ctx, group = spec.context, spec.group

    def length(w):
        return naive_length(group.kind, group.rank, w)

    naive = naive_twisted(all_elements(group.kind, group.rank), ctx.twist, ctx.base)
    simples = group.simple_reflections()
    thetas = [naive_theta(ctx, s) for s in simples]
    moves = {
        (a, idx, b)
        for idx, (s, theta_s) in enumerate(zip(simples, thetas), start=1)
        for a in naive
        if (b := naive_monoid_star(length, s, theta_s, a)) != a
    }
    assert set(ctx._sweep[1]) == moves
    assert len(ctx._sweep[1]) == len(moves)
    assert involution_lengths(ctx) == {a: length(a) for a in naive}


@pytest.mark.parametrize("case", LARGE, ids=_instance_id)
def test_sweep_lengths_match_group_length(case):
    spec = cached_build(case[0], *case[1])
    lengths = involution_lengths(spec.context)
    assert lengths.keys() == twisted_involutions(spec.context)
    for a, ell in lengths.items():
        assert ell == spec.group.length(a)


@pytest.fixture
def no_enumeration(monkeypatch):
    """Fail any call that lists a subgroup by closure under products."""

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated a subgroup")

    monkeypatch.setattr(korbits.weyl, "enumerate_subgroup", refuse)
    monkeypatch.setattr(korbits.catalog, "enumerate_subgroup", refuse)


@pytest.mark.parametrize("case", CENSUS, ids=_instance_id)
def test_sweep_tries_only_ascents(case, no_enumeration, monkeypatch):
    """The sweep calls the move once per move it records, so it never tries
    a descent, and its levels partition the involutions by length."""
    calls = 0
    star = korbits.twisted._star

    def counted(row, a):
        nonlocal calls
        calls += 1
        return star(row, a)

    monkeypatch.setattr(korbits.twisted, "_star", counted)
    ctx = build(case[0], *case[1]).context
    involutions, moves, lengths, _ = ctx._sweep
    assert calls == len(moves)
    levels = involution_levels(ctx)
    listed = [w for level in levels for w in level]
    assert len(listed) == len(involutions) and set(listed) == involutions
    for length, level in enumerate(levels):
        assert set(level) == {w for w in involutions if lengths[w] == length}


@pytest.mark.parametrize("case", CENSUS, ids=_instance_id)
def test_sweep_builds_only_new_targets(case, no_enumeration, monkeypatch):
    """The sweep builds an element only for a move target not found before:
    |I| - 1 of them, the identity coming from the group."""
    calls = 0
    signed_perm = korbits.twisted._signed_perm

    def counted(images):
        nonlocal calls
        calls += 1
        return signed_perm(images)

    monkeypatch.setattr(korbits.twisted, "_signed_perm", counted)
    ctx = build(case[0], *case[1]).context
    calls = 0  # the sweep's alone
    involutions = ctx._sweep[0]
    assert calls == len(involutions) - 1


@pytest.mark.parametrize("case", CENSUS, ids=_instance_id)
def test_sweep_shares_one_object_per_involution(case):
    """Every move, length entry and member of the set holds the very object
    its level lists."""
    ctx = cached_build(case[0], *case[1]).context
    listed = {w: w for level in involution_levels(ctx) for w in level}
    involutions, moves, lengths, _ = ctx._sweep
    for a, _, b in moves:
        assert a is listed[a] and b is listed[b]
    assert all(w is listed[w] for w in lengths)
    assert all(w is listed[w] for w in involutions)


@pytest.mark.parametrize("case", CENSUS, ids=_instance_id)
def test_sweep_matches_closure_sweep(case):
    """The sweep by length records the moves and lengths of the closure that
    tries every simple reflection on every element."""
    ctx = cached_build(case[0], *case[1]).context
    involutions, moves, lengths = closure_sweep(ctx)
    assert twisted_involutions(ctx) == involutions
    assert len(ctx._sweep[1]) == len(moves)
    assert set(ctx._sweep[1]) == set(moves)
    assert involution_lengths(ctx) == lengths


@pytest.mark.parametrize("case", CENSUS, ids=_instance_id)
def test_moves_come_by_source_length(case):
    """What the reverse pass of ``image_set`` relies on: along the sweep's
    moves the source lengths never decrease, and every target is longer
    than its source."""
    ctx = cached_build(case[0], *case[1]).context
    lengths = involution_lengths(ctx)
    last = 0
    for a, _, b in ctx._sweep[1]:
        assert lengths[a] >= last
        assert lengths[b] > lengths[a]
        last = lengths[a]


@pytest.mark.parametrize("case", CENSUS, ids=_instance_id)
def test_image_matches_reverse_closure(case):
    spec = cached_build(case[0], *case[1])
    top = a_max(spec)
    assert image_set(spec.context, top) == reverse_closure_image(spec.context, top)


@pytest.mark.parametrize("case", SMALL, ids=_instance_id)
def test_coset_tables_match_naive_partition(case):
    spec = cached_build(case[0], *case[1])
    elements = all_elements(spec.group.kind, spec.group.rank)
    for i in range(len(spec.tori)):
        try:
            table = coset_table(spec, i)
        except MissingWkData:
            continue
        wk = enumerate_subgroup(spec.tori[i].wk_generators or [spec.group.identity()])
        assert canon_blocks(table, elements) == naive_cosets(wk, elements)
        for rep in table.reps:
            assert table.canon(rep) == rep


def _assert_table_matches_oracle(table, subgroup, elements):
    """Reps are the block minima, size is |W_K|, canon sends every member
    of a block to its minimum, and canon(x) = e exactly on W_K."""
    blocks = naive_cosets(subgroup, elements)
    minima = {min(block, key=canonical_key): block for block in blocks}
    assert table.reps == tuple(sorted(minima, key=canonical_key))
    assert table.size == len(subgroup)
    for rep, block in minima.items():
        for x in block:
            assert table.canon(x) == rep
    for x in elements:
        assert table.canon(x).is_identity() == (x in subgroup)


@pytest.mark.parametrize("case", SMALL, ids=_instance_id)
def test_coset_table_reps_are_block_minima(case):
    spec = cached_build(case[0], *case[1])
    elements = all_elements(spec.group.kind, spec.group.rank)
    for i, desc in enumerate(spec.tori):
        if desc.wk_generators is not None:
            wk = enumerate_subgroup(desc.wk_generators or [spec.group.identity()])
            _assert_table_matches_oracle(coset_table(spec, i), wk, elements)


def test_coset_table_on_random_subgroups():
    """The subgroups of test_randomized_instances_agree_with_oracles (same
    seed, same draws), sign-changing generators in B3 and D3 included."""
    rng = random.Random(0)
    for _ in range(50):
        group = rng.choice(RANDOM_GROUPS)
        elements = sorted_elements(group)
        gens = rng.sample(elements, rng.randint(1, 3))
        rng.choice([w for w in elements if (w * w).is_identity()])
        _assert_table_matches_oracle(
            CosetTable(gens, group), naive_subgroup(gens, group.rank), elements
        )


B3, D4, S3xS3 = (
    hyperoctahedral_group(3),
    even_hyperoctahedral_group(4),
    product_symmetric_group(3),
)

# Hand-picked subgroups for the orderly listing of coset representatives:
# with no sign change in W_K every allowed sign vector appears; sign changes
# alone pin signs; the trivial W_K keeps all of W and W itself keeps only e.
TARGETED_SUBGROUPS = [
    ("B3-transposition", B3, [transposition(1, 2, 3)]),
    ("D4-transposition", D4, [transposition(1, 2, 4)]),
    ("B3-sign-changes", B3, [sign_flip([1], 3), sign_flip([3], 3)]),
    ("D4-sign-changes", D4, [sign_flip([1, 2], 4), sign_flip([2, 4], 4)]),
    ("B3-trivial", B3, []),
    ("D4-trivial", D4, []),
    ("S4-trivial", symmetric_group(4), []),
    ("B3-whole", B3, list(B3.simple_reflections())),
    ("D4-whole", D4, list(D4.simple_reflections())),
    ("S3xS3-whole", S3xS3, list(S3xS3.simple_reflections())),
    ("S3xS3-one-block", S3xS3, [transposition(1, 2, 6), transposition(2, 3, 6)]),
]


@pytest.mark.parametrize(
    "group,gens",
    [c[1:] for c in TARGETED_SUBGROUPS],
    ids=[c[0] for c in TARGETED_SUBGROUPS],
)
def test_coset_table_on_targeted_subgroups(group, gens):
    elements = sorted_elements(group)
    table = CosetTable(gens, group)
    _assert_table_matches_oracle(table, naive_subgroup(gens, group.rank), elements)
    if all(v > 0 for g in gens for v in g):
        assert {w.signs() for w in table.reps} == {w.signs() for w in elements}


def _naive_tori(theta):
    """The oracle's classes as (representative, size, minus dimension), in
    the package's order."""
    naive = naive_torus_classes(theta.group.kind, theta.rank, theta.rows)
    return sorted(
        ((min(orbit, key=canonical_key), len(orbit), dim) for orbit, dim in naive),
        key=lambda t: (-t[2], canonical_key(t[0])),
    )


def _rows(classes):
    return [(c.representative, c.orbit_size, c.minus_dimension) for c in classes]


def _assert_tori_match_oracles(theta, classes):
    """The classes are the naive oracle's, and those of the conjugation by
    every restricted line."""
    assert _rows(classes) == _naive_tori(theta)
    assert _rows(classes) == all_lines_torus_classes(theta)


@pytest.mark.parametrize("case", TORI, ids=_instance_id)
def test_torus_classes_match_naive(case):
    spec = cached_build(case[0], *case[1])
    _assert_tori_match_oracles(spec.lattice, spec.torus_classes())


# lattices outside the catalog: no catalog Psi0 is of type B or D, and only
# there do two orthogonal root sets give one involution (-1 on B2 is both
# s(e1) s(e2) and s(e1 - e2) s(e1 + e2)); the catalog's B and D lattices
# flip one sign, and the last two permute coordinates, with Psi0 of type
# A1 x A1
OFF_CATALOG_TORI = [
    ("B2-minus", hyperoctahedral_group(2), sign_flip((1, 2), 2)),
    ("B3-minus", hyperoctahedral_group(3), sign_flip((1, 2, 3), 3)),
    ("D3-minus", even_hyperoctahedral_group(3), sign_flip((1, 2, 3), 3)),
    ("D4-minus", even_hyperoctahedral_group(4), sign_flip((1, 2, 3, 4), 4)),
    ("B3-diag", hyperoctahedral_group(3), sign_flip((1, 2), 3)),
    ("D4-diag", even_hyperoctahedral_group(4), sign_flip((1, 2), 4)),
    ("B4-swaps", hyperoctahedral_group(4), SignedPerm((2, 1, 4, 3))),
    ("D4-minus-swaps", even_hyperoctahedral_group(4), SignedPerm((-2, -1, -4, -3))),
]


@pytest.mark.parametrize(
    "group,w", [c[1:] for c in OFF_CATALOG_TORI], ids=[c[0] for c in OFF_CATALOG_TORI]
)
def test_off_catalog_torus_classes_match_naive(group, w):
    theta = ThetaLattice(group, w)
    _assert_tori_match_oracles(theta, torus_classification(theta))


def _assert_tori_match_or_both_raise(theta, oracle):
    """The torus classes are the oracle's, or both raise ``ValueError``;
    True in the first case."""
    try:
        expected = oracle(theta)
    except ValueError:
        with pytest.raises(ValueError):
            torus_classification(theta)
        return False
    assert _rows(torus_classification(theta)) == expected
    return True


@pytest.mark.parametrize(
    "group,w", [c[1:] for c in OFF_CATALOG_TORI], ids=[c[0] for c in OFF_CATALOG_TORI]
)
def test_off_catalog_root_lines_match_dense(group, w):
    # the classes are compared in test_off_catalog_torus_classes_match_naive
    assert_root_lines_match_dense(ThetaLattice(group, w))


@st.composite
def _signed_involutions(draw):
    """A signed-permutation involution on the lattice of a group of kind A,
    B, D or AxA and rank at most 8: a random matching of the coordinates,
    one sign per swapped pair and one per fixed coordinate."""
    kind = draw(st.sampled_from(("A", "B", "D", "AxA")))
    blocks = 2 if kind == "AxA" else 1
    rank = blocks * draw(st.integers(1, 8 // blocks))
    order = draw(st.permutations(range(rank)))
    pairs = draw(st.integers(0, rank // 2))
    image = list(range(rank))
    for a, b in zip(order[: 2 * pairs : 2], order[1 : 2 * pairs : 2]):
        image[a], image[b] = b, a
    sign = {}
    for j in order:
        sign[j] = sign.get(image[j]) or draw(st.sampled_from((1, -1)))
    w = SignedPerm(sign[j] * (image[j] + 1) for j in range(rank))
    return ThetaLattice(WeylGroup(kind, rank), w)


@settings(max_examples=50)
@given(_signed_involutions())
def test_root_lines_and_tori_match_dense_on_signed_involutions(theta):
    assert_root_lines_match_dense(theta)
    # the minus dimension, read from theta's fixed coordinates, is the rank
    # of I - theta
    identity_minus_theta = [
        [Fraction(int(i == j) - x) for j, x in enumerate(row)]
        for i, row in enumerate(theta.rows)
    ]
    assert theta.minus_dimension == _rank(identity_minus_theta)
    psi, lines = root_lines(theta)
    if _assert_tori_match_or_both_raise(theta, all_lines_torus_classes) and psi:
        # where the lines normalize a nonempty Psi0, the simple lines are a
        # basis of their span (with Psi0 empty they are never sought, and
        # lines that no root system holds can have fewer)
        span = [[Fraction(x.get(k, 0)) for k in range(theta.rank)] for x in lines]
        assert len(_simple_lines(lines)) == _rank(span)
    # the naive oracle enumerates W(Psi0) and multiplies rational matrices,
    # so it is compared while Psi0 has at most the 18 roots of B3
    if len(psi0(theta)) <= 18:
        _assert_tori_match_or_both_raise(theta, _naive_tori)


@pytest.mark.parametrize(
    "group", RANDOM_GROUPS[:6], ids=lambda g: g.describe()
)
def test_conjugacy_classes_match_naive(group):
    elements = sorted_elements(group)
    classes = conjugacy_classes(elements, conjugations(elements))
    for least, orbit in classes:
        assert least == min(orbit, key=canonical_key)
    assert frozenset(c for _, c in classes) == naive_conjugacy(elements, elements)


GALOIS_INSTANCES = [
    ("SL2n", (1,)),
    ("SL2n", (2,)),
    ("SL2n", (3,)),
    ("SOodd1", (2,)),
    ("SOeven1", (2,)),
    ("Upq", (2, 1)),
    ("Upq", (2, 2)),
    ("Upq", (3, 2)),
    ("Restriction", (2,)),
    ("Restriction", (3,)),
]


@pytest.mark.parametrize("case", GALOIS_INSTANCES, ids=_instance_id)
def test_family_galois_orbits_match_naive(case):
    spec = cached_build(case[0], *case[1])
    for i in range(len(spec.tori)):
        action = galois_action(spec, i)
        orbits = naive_galois_orbits(action.domain, action.mapping.__getitem__)
        assert all(len(o) <= 2 for o in orbits)
        fixed, pairs = fixed_and_pairs(action)
        assert {o for o in orbits if len(o) == 1} == {
            frozenset({x}) for x in fixed
        }
        assert {o for o in orbits if len(o) == 2} == {
            frozenset(p) for p in pairs
        }


def test_randomized_instances_agree_with_oracles():
    rng = random.Random(0)
    for round_no in range(50):
        group = rng.choice(RANDOM_GROUPS)
        elements = sorted_elements(group)
        gens = rng.sample(elements, rng.randint(1, 3))

        closure = enumerate_subgroup(gens)
        assert closure == naive_subgroup(gens, group.rank)

        fast = canon_blocks(CosetTable(gens, group), elements)
        assert fast == naive_cosets(closure, elements)

        classes = conjugacy_classes(elements, conjugations(gens))
        for least, orbit in classes:
            assert least == min(orbit, key=canonical_key)
        fast_classes = frozenset(c for _, c in classes)
        assert fast_classes == naive_conjugacy(elements, closure)

        t = rng.choice([w for w in elements if (w * w).is_identity()])
        mapping = {a: t * a * t.inverse() for a in elements}
        action = GaloisAction(domain=tuple(elements), mapping=mapping)
        fixed, pairs = fixed_and_pairs(action)
        orbits = naive_galois_orbits(elements, action.mapping.__getitem__)
        assert {o for o in orbits if len(o) == 1} == {
            frozenset({x}) for x in fixed
        }
        assert {o for o in orbits if len(o) == 2} == {
            frozenset(p) for p in pairs
        }
        assert len(fixed) + 2 * len(pairs) == group.order


# -- Springer values against five products ----------------------------------


@pytest.mark.parametrize(
    "case", SMALL + [("Upq", (4, 3)), ("SL2n", (4,))], ids=_instance_id
)
def test_springer_values_match_naive_products(case):
    # every coset rep of a torus with W_K data, else every element of W
    spec = cached_build(case[0], *case[1])
    for i, desc in enumerate(spec.tori):
        reps = (
            all_elements(spec.group.kind, spec.group.rank)
            if desc.wk is None
            else coset_table(spec, i).reps
        )
        for w in reps:
            naive = naive_springer_value(spec.context, desc.twist_class, w)
            assert springer(spec, i, w) == naive


# -- the two routes to the twisted-involution image ---------------------------


@pytest.mark.parametrize("case", LARGE, ids=_instance_id)
def test_sweep_values_match_monoid_image(case):
    spec = cached_build(case[0], *case[1])
    monoid = image_set(spec.context, a_max(spec))
    sweep = {
        springer(spec, i, w)
        for i, desc in enumerate(spec.tori)
        for w in (
            all_elements(spec.group.kind, spec.group.rank)
            if desc.wk is None
            else coset_table(spec, i).reps
        )
    }
    assert sweep == monoid


@pytest.mark.parametrize("n", range(1, 7))
def test_gl_image_is_every_twisted_involution(n):
    spec = cached_build("GL", n)
    assert image_set(spec.context, a_max(spec)) == twisted_involutions(
        spec.context
    )


@pytest.mark.parametrize(
    "case", [("Upq", (3, 1)), ("SOodd1", (3,)), ("Ustar", (3,))], ids=_instance_id
)
def test_twisted_layer_never_enumerates_the_group(case):
    spec = build(case[0], *case[1])
    ctx = spec.context
    top = a_max(spec)
    involutions = twisted_involutions(ctx)
    image = image_set(ctx, top)
    graph = ReachabilityGraph.build(ctx)
    naive = naive_twisted(
        all_elements(spec.group.kind, spec.group.rank), ctx.twist, ctx.base
    )
    assert involutions == naive
    assert image == {a for a in naive if top in reachable_set(ctx, a)}
    assert graph.nodes == tuple(sorted(naive, key=canonical_key))
    group = spec.group

    def length(w):
        return naive_length(group.kind, group.rank, w)

    moves = {
        (a, idx, b)
        for a in naive
        for idx, s in enumerate(group.simple_reflections(), start=1)
        if (b := naive_monoid_star(length, s, naive_theta(ctx, s), a)) != a
    }
    assert len(graph.edges) == len(moves)
    assert set(graph.edges) == moves


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 15), (4, 105)])
def test_ustar_image_counts(n, count):
    spec = cached_build("Ustar", n)
    assert len(image_set(spec.context, a_max(spec))) == count


# -- springer fibers separate the families -----------------------------------


@pytest.mark.parametrize(
    "case",
    [
        ("SOodd1", (2,)),
        ("SOodd1", (3,)),
        ("SOodd1", (4,)),
        ("SOeven1", (2,)),
        ("SOeven1", (3,)),
        ("SOeven1", (4,)),
        ("Restriction", (2,)),
        ("Restriction", (3,)),
    ],
    ids=_instance_id,
)
def test_value_map_injective_per_torus(case):
    spec = cached_build(case[0], *case[1])
    for i in range(len(spec.tori)):
        values = [p.value for p in orbit_parameters(spec) if p.torus_index == i]
        assert len(set(values)) == len(values)


def test_value_map_fibers_where_expected():
    sl2 = cached_build("SL2n", 1)
    fibers = Counter(p.value for p in orbit_parameters(sl2) if p.torus_index == 1)
    assert fibers == {sl2.group.identity(): 2}

    u21 = cached_build("Upq", 2, 1)
    fibers = Counter(p.value for p in orbit_parameters(u21) if p.torus_index == 1)
    assert fibers == {u21.group.identity(): 3}
    split = [p.value for p in orbit_parameters(u21) if p.torus_index == 0]
    assert len(set(split)) == len(split) == 3
