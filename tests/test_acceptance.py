"""End-to-end acceptance checks, one test per headline claim.

Each criterion re-derives its expected answer through an independent route —
itertools enumeration, literal matrices, closed-form counts — before
comparing with the package's fast path.  All comparisons are exact.
"""

import math
import random
from collections import Counter

import pytest

from korbits.catalog import (
    GBL,
    MissingWkData,
    a_max,
    coset_table,
    orbit_parameters,
    springer,
    verify_matrix_claims,
)
from korbits.descent import (
    GaloisAction,
    _rule,
    descent_report,
    fixed_and_pairs,
    galois_action,
)
from korbits.dyadic import G1, diagonal_structure
from korbits.twisted import image_set, twisted_involutions
from korbits.weyl import (
    CosetTable,
    conjugacy_classes,
    enumerate_subgroup,
    even_hyperoctahedral_group,
    hyperoctahedral_group,
    product_symmetric_group,
    sign_flip,
    symmetric_group,
)
from oracle import (
    all_elements,
    naive_conjugacy,
    naive_cosets,
    naive_galois_orbits,
    naive_subgroup,
    naive_twisted,
)
from support import (
    cached_build,
    canon_blocks,
    conjugations,
    perm,
    sorted_elements,
    tr,
)

UPQ_RANGE = [(p, q) for q in range(1, 4) for p in range(q, 7 - q)]

SMALL = (  # |W| <= 2^5 * 5! = 3840
    [("GL", (n,)) for n in range(1, 7)]
    + [("SL2n", (n,)) for n in (1, 2, 3)]
    + [("Ustar", (n,)) for n in (1, 2, 3)]
    + [("SOodd1", (n,)) for n in range(1, 5)]
    + [("SOeven1", (n,)) for n in range(1, 6)]
    + [("Upq", pq) for pq in UPQ_RANGE]
    + [("Restriction", (r,)) for r in range(1, 5)]
)

LARGE = SMALL + [("GL", (7,)), ("Ustar", (4,)), ("SOodd1", (5,))]

VERIFY_INSTANCES = (
    [("GL", (n,)) for n in range(1, 8)]
    + [("SL2n", (n,)) for n in (1, 2, 3)]
    + [("Ustar", (n,)) for n in (1, 2, 3, 4)]
    + [("SOodd1", (n,)) for n in range(1, 5)]
    + [("SOeven1", (n,)) for n in range(1, 5)]
    + [("Upq", pq) for pq in UPQ_RANGE]
    + [("Restriction", (r,)) for r in range(1, 5)]
)


def test_criterion_01():
    # GL(3): the four relative positions, with (1 3) open and e closed
    spec = cached_build("GL", 3)
    inv = twisted_involutions(spec.context)
    assert inv == {perm(1, 2, 3), perm(2, 3, 1), perm(3, 1, 2), perm(3, 2, 1)}
    w0 = spec.group.longest_element()
    assert w0 == tr(1, 3, 3)
    assert len(inv) == 4
    by_length = sorted(inv, key=spec.group.length)
    lengths = [spec.group.length(w) for w in by_length]
    assert lengths == [0, 2, 2, 3]
    assert by_length[0] == spec.group.identity()  # closed
    assert by_length[-1] == tr(1, 3, 3)  # open


def test_criterion_02():
    # GL(n), n = 1..7: twisted-involution counts against brute force,
    # and the monoid image is everything
    expected = (1, 2, 4, 10, 26, 76, 232)
    for n, count in zip(range(1, 8), expected):
        spec = cached_build("GL", n)
        inv = twisted_involutions(spec.context)
        assert len(inv) == count
        naive = naive_twisted(
            all_elements("A", n), spec.context.twist, spec.context.base
        )
        assert inv == naive
        assert image_set(spec.context, a_max(spec)) == inv


def test_criterion_03():
    # U*(2n), n = 1..4: (2n-1)!! parameters, one per fixed-point-free
    # involution, and a trivial conjugation action
    for n, count in zip(range(1, 5), (1, 3, 15, 105)):
        spec = cached_build("Ustar", n)
        image = image_set(spec.context, a_max(spec))
        assert len(image) == count
        assert count == math.prod(range(1, 2 * n, 2))
        fpf = {
            w
            for w in all_elements("A", 2 * n)
            if (w * w).is_identity()
            and all(w.images[i - 1] != i for i in range(1, 2 * n + 1))
        }
        w0 = spec.group.longest_element()
        assert {w * w0 for w in image} == fpf
        # the conjugation a -> w0 a^-1 w0 fixes the image pointwise
        assert all(w0 * a.inverse() * w0 == a for a in image)


def test_criterion_04():
    # SL(2): three parameters, a double fiber over the closed value,
    # and descent into one rational point plus one conjugate pair
    spec = cached_build("SL2n", 1)
    params = orbit_parameters(spec)
    assert len(params) == 3
    fibers = Counter(p.value for p in params)
    closed = spec.group.identity()
    assert fibers[closed] == 2
    assert len(set(fibers.values())) == 2  # not injective
    report = descent_report(spec)
    assert (report.fixed_count, report.pair_count) == (1, 1)


def test_criterion_05():
    # SL(2n): conjugation trivial everywhere for n = 2, free exactly on
    # the top block class for n = 3; totals match brute-force coset counts
    def trivial(action):
        return all(img == w for w, img in action.mapping.items())

    spec2 = cached_build("SL2n", 2)
    for i in range(len(spec2.tori)):
        assert trivial(galois_action(spec2, i))

    spec3 = cached_build("SL2n", 3)
    for i in range(3):
        assert trivial(galois_action(spec3, i))
    top = galois_action(spec3, 3)
    fixed, pairs = fixed_and_pairs(top)
    assert fixed == ()  # free
    assert all(top.mapping[rep] != rep for rep in top.domain)

    for spec, total in ((spec2, 13), (spec3, 91)):
        elements = all_elements("A", spec.group.rank)
        oracle_total = sum(
            len(naive_cosets(enumerate_subgroup(desc.wk_generators), elements))
            for desc in spec.tori
        )
        assert oracle_total == total == len(orbit_parameters(spec))


def test_criterion_06():
    # SO(2n+1,1), n = 1..4: n+1 orbits, one per transposition (i n+1),
    # every parameter rational
    for n in range(1, 5):
        spec = cached_build("SOodd1", n)
        params = orbit_parameters(spec)
        assert len(params) == n + 1
        rank = spec.group.rank
        system = [spec.group.identity()] + [
            tr(i, n + 1, rank) for i in range(1, n + 1)
        ]
        elements = all_elements(spec.group.kind, rank)
        for block in canon_blocks(coset_table(spec, 0), elements):
            assert sum(1 for s in system if s in block) == 1
        report = descent_report(spec)
        assert (report.fixed_count, report.pair_count) == (n + 1, 0)


def test_criterion_07():
    # SO(2n,1), n = 1..4: image = the n+1 sign vectors with at most one
    # negative entry, sweep route equal to monoid route, all rational
    for n in range(1, 5):
        spec = cached_build("SOeven1", n)
        image = image_set(spec.context, a_max(spec))
        expected = {spec.group.identity()} | {
            sign_flip((i,), n) for i in range(1, n + 1)
        }
        assert image == expected
        sweep = {
            springer(spec, i, w)
            for i in range(len(spec.tori))
            for w in coset_table(spec, i).reps
        }
        assert sweep == image
        report = descent_report(spec)
        assert (report.fixed_count, report.pair_count) == (n + 1, 0)


def test_criterion_08():
    # U(p,q), p >= q, p+q <= 6: q+1 torus classes; the split-torus value
    # map is a bijection onto involutions with p-q fixed points; for q = 1
    # the rational values are the transpositions (i j) with i+j = p+2;
    # finally the emptiness pattern of the rational part
    for p, q in UPQ_RANGE:
        spec = cached_build("Upq", p, q)
        n = p + q
        assert len(spec.tori) == q + 1
        assert len(spec.torus_classes()) == q + 1

        reps = coset_table(spec, 0).reps
        values = [springer(spec, 0, rep) for rep in reps]
        assert len(set(values)) == len(values)
        target = {
            w
            for w in all_elements("A", n)
            if (w * w).is_identity()
            and sum(1 for i in range(1, n + 1) if w.images[i - 1] == i) == p - q
        }
        assert set(values) == target

        if q == 1:
            fixed_reps = fixed_and_pairs(galois_action(spec, 0))[0]
            fixed_values = {springer(spec, 0, rep) for rep in fixed_reps}
            assert fixed_values == {
                tr(i, p + 2 - i, n)
                for i in range(1, p + 2)
                if i != p + 2 - i and i < p + 2 - i
            }

    mismatches = []
    for p, q in UPQ_RANGE:
        spec = cached_build("Upq", p, q)
        for i in range(len(spec.tori)):
            actual_empty = not fixed_and_pairs(galois_action(spec, i))[0]
            claimed_empty = (p - q) % 2 == 0 and i % 2 == 0
            if actual_empty != claimed_empty:
                mismatches.append((p, q, i))
    assert not mismatches, (
        "rational part emptiness does not follow the both-even rule: "
        "computed pattern is empty exactly when p-q is even and i is odd; "
        f"the rule mispredicts at (p, q, i) in {mismatches}"
    )


def test_criterion_09():
    # the matrix checklist passes on every instance, including the named
    # headline identities, and the rank-one identities recompute directly
    assert GBL.det() == G1
    cocycle = GBL.inverse() * GBL.conjugate()
    assert diagonal_structure(2).to_weyl(cocycle) == tr(1, 2, 2)

    required = {
        "GL": ("torus-0-galois-cocycle",),
        "SL2n": ("block-realizer-det-one", "block-realizer-galois-cocycle"),
        "SOeven1": ("split-theta-cocycle-exact", "split-theta-cocycle-weyl"),
        "Upq": ("theta-matches-lattice-involution", "torus-0-theta-cocycle"),
    }
    for family, params in VERIFY_INSTANCES:
        spec = cached_build(family, *params)
        claims = verify_matrix_claims(spec)
        failed = [c.name for c in claims if not c.ok]
        assert not failed, (spec.name, failed)
        names = {c.name for c in claims}
        for must in required.get(family, ()):
            assert must in names, (spec.name, must)

    for p, q in UPQ_RANGE:
        spec = cached_build("Upq", p, q)
        n = p + q
        c0 = spec.group.identity()
        for j in range(1, q + 1):
            c0 = c0 * tr(p - q + j, n - q + j, n)
        assert spec.lattice.theta == c0


def test_criterion_10():
    # property bundle: brute-force equivalence for twisted sets, cosets,
    # conjugacy and conjugation orbits; involutive well-defined actions;
    # the two image routes agreeing on every instance in range
    for family, params in SMALL:
        spec = cached_build(family, *params)
        elements = all_elements(spec.group.kind, spec.group.rank)
        assert twisted_involutions(spec.context) == naive_twisted(
            elements, spec.context.twist, spec.context.base
        )
        for i, desc in enumerate(spec.tori):
            try:
                table = coset_table(spec, i)
            except MissingWkData:
                continue
            wk = enumerate_subgroup(desc.wk_generators or [spec.group.identity()])
            assert canon_blocks(table, elements) == naive_cosets(wk, elements)

    seen_groups = set()
    for family, params in SMALL:
        spec = cached_build(family, *params)
        group = spec.group
        if (group.kind, group.rank) in seen_groups:
            continue
        seen_groups.add((group.kind, group.rank))
        elements = sorted_elements(group)
        involutions = [w for w in elements if (w * w).is_identity()]
        simples = conjugations(group.simple_reflections())
        fast = frozenset(c for _, c in conjugacy_classes(involutions, simples))
        assert fast == naive_conjugacy(involutions, elements)

    for family, params in SMALL:
        spec = cached_build(family, *params)
        for i in range(len(spec.tori)):
            desc = spec.descriptor(i)
            if desc.wk is None:
                continue
            action = galois_action(spec, i)
            for rep in action.domain:
                assert action.mapping[action.mapping[rep]] == rep
            # the rule sends each coset into the coset of its image
            table, rule = coset_table(spec, i), _rule(desc)
            for x in all_elements(spec.group.kind, spec.group.rank):
                assert table.canon(rule(x)) == action.mapping[table.canon(x)]
            orbits = naive_galois_orbits(action.domain, action.mapping.__getitem__)
            fixed, pairs = fixed_and_pairs(action)
            assert {o for o in orbits if len(o) == 1} == {
                frozenset({x}) for x in fixed
            }
            assert {o for o in orbits if len(o) == 2} == {
                frozenset(pair) for pair in pairs
            }

    rng = random.Random(0)
    pool = [
        symmetric_group(3),
        symmetric_group(4),
        symmetric_group(5),
        hyperoctahedral_group(2),
        hyperoctahedral_group(3),
        even_hyperoctahedral_group(3),
        product_symmetric_group(2),
        product_symmetric_group(3),
    ]
    for _ in range(50):
        group = rng.choice(pool)
        elements = sorted_elements(group)
        gens = rng.sample(elements, rng.randint(1, 3))
        closure = enumerate_subgroup(gens)
        assert closure == naive_subgroup(gens, group.rank)
        assert canon_blocks(CosetTable(gens, group), elements) == naive_cosets(
            closure, elements
        )
        t = rng.choice([w for w in elements if (w * w).is_identity()])
        action = GaloisAction(
            domain=tuple(elements),
            mapping={a: t * a * t.inverse() for a in elements},
        )
        fixed, pairs = fixed_and_pairs(action)
        assert len(fixed) + 2 * len(pairs) == group.order
        assert naive_galois_orbits(elements, action.mapping.__getitem__) == frozenset(
            {frozenset({x}) for x in fixed} | {frozenset(pr) for pr in pairs}
        )

    for family, params in LARGE:
        spec = cached_build(family, *params)
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
