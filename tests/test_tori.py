from fractions import Fraction
from math import comb, factorial

import pytest

from korbits.tori import ThetaLattice, TorusClass, root_reflection, torus_classification
from korbits.weyl import (
    RANK_CAP,
    canonical_key,
    enumerate_subgroup,
    identity,
    symmetric_group,
)
from support import cached_build, flip, perm, tr


def _neg_identity_lattice(n):
    rows = tuple(
        tuple(-1 if i == j else 0 for j in range(n)) for i in range(n)
    )
    return ThetaLattice(symmetric_group(n), rows)


def test_lattice_validation():
    s2 = symmetric_group(2)
    with pytest.raises(ValueError):
        ThetaLattice(s2, ((1, 1), (0, 1)))  # squares to I + 2E12, not I
    with pytest.raises(ValueError):
        ThetaLattice(s2, ((1, 0, 0), (0, 1, 0)))


def test_lattice_validation_at_rank_cap():
    # the involution check runs over nonzero entries, so a monomial
    # lattice at the rank cap builds quickly
    n = RANK_CAP
    swaps = [j ^ 1 for j in range(n)]  # (1 2)(3 4)... as 0-based images
    rows = tuple(tuple(-int(j == swaps[i]) for j in range(n)) for i in range(n))
    assert ThetaLattice(symmetric_group(n), rows).rank == n
    cycle = tuple(tuple(int(j == (i + 1) % n) for j in range(n)) for i in range(n))
    with pytest.raises(ValueError, match="^lattice map is not an involution$"):
        ThetaLattice(symmetric_group(n), cycle)


def test_lattice_apply_and_signed_perm():
    theta = _neg_identity_lattice(3)
    assert theta.apply((1, 0, -2)) == (-1, 0, 2)
    assert theta.as_signed_perm() == flip((1, 2, 3), 3)
    swap = ThetaLattice(symmetric_group(3), tuple(map(tuple, tr(2, 3, 3).matrix())))
    assert swap.as_signed_perm() == tr(2, 3, 3)
    with pytest.raises(ValueError):
        ThetaLattice(
            symmetric_group(2), ((0, 1), (1, 0))
        ).apply((1,))


def test_root_reflection_shapes():
    assert root_reflection((1, -1, 0), 3) == tr(1, 2, 3)
    assert root_reflection((0, 1, 1), 3) == perm(1, -3, -2)
    assert root_reflection((0, 0, 1), 3) == flip((3,), 3)
    # only the line matters for the hyperplane
    assert root_reflection((2, 0, 0), 3) == flip((1,), 3)
    with pytest.raises(ValueError):
        root_reflection((1, 2, 0), 3)


def test_psi0_for_split_involution():
    theta = _neg_identity_lattice(3)
    assert set(theta.psi0()) == set(theta.all_roots())
    assert len(theta.all_roots()) == 6


def test_restricted_roots_non_reduced():
    # the rank-3 hermitian lattice restricts two root lengths onto one line
    spec = cached_build("Upq", 2, 1)
    rr = spec.lattice.restricted_roots()
    assert (0, Fraction(1), Fraction(-1)) in {tuple(v) for v in rr}
    assert (0, Fraction(1, 2), Fraction(-1, 2)) in {tuple(v) for v in rr}
    by_line = {}
    for v in rr:
        scale = next(c for c in v if c)
        by_line.setdefault(tuple(c / scale for c in v), set()).add(abs(scale))
    assert any(len(lengths) == 2 for lengths in by_line.values())


def test_minus_space_dimensions():
    assert len(_neg_identity_lattice(4).minus_space()) == 4
    assert len(cached_build("Upq", 2, 2).lattice.minus_space()) == 2
    assert len(cached_build("SOeven1", 3).lattice.minus_space()) == 1


# (family, params, [(representative cycle string, minus dim, class size)])
CLASSIFICATIONS = [
    ("GL", (1,), [("e", 1, 1)]),
    ("GL", (2,), [("e", 2, 1), ("(1 2)", 1, 1)]),
    ("GL", (3,), [("e", 3, 1), ("(2 3)", 2, 3)]),
    ("GL", (4,), [("e", 4, 1), ("(3 4)", 3, 6), ("(1 2)(3 4)", 2, 3)]),
    ("GL", (5,), [("e", 5, 1), ("(4 5)", 4, 10), ("(2 3)(4 5)", 3, 15)]),
    ("Upq", (2, 1), [("e", 1, 1), ("(2 3)", 0, 1)]),
    ("Upq", (2, 2), [("e", 2, 1), ("(2 4)", 1, 2), ("(1 3)(2 4)", 0, 1)]),
    ("Upq", (3, 2), [("e", 2, 1), ("(3 5)", 1, 2), ("(2 4)(3 5)", 0, 1)]),
    ("SOeven1", (2,), [("e", 1, 1), ("e[+-]", 0, 1)]),
    ("SOeven1", (3,), [("e", 1, 1), ("e[++-]", 0, 1)]),
    ("SOodd1", (2,), [("e", 1, 1)]),
    ("SL2n", (2,), [("e", 2, 1)]),
    ("Ustar", (2,), [("e", 2, 1)]),
    ("Restriction", (2,), [("e", 2, 1)]),
]


@pytest.mark.parametrize("family,params,expected", CLASSIFICATIONS)
def test_classification_tables(family, params, expected):
    classes = cached_build(family, *params).torus_classes()
    got = [
        (c.representative.cycle_string(), c.minus_dimension, c.orbit_size)
        for c in classes
    ]
    assert got == expected
    assert [c.index for c in classes] == list(range(len(expected)))


@pytest.mark.parametrize("family,params,expected", CLASSIFICATIONS)
def test_classification_invariants(family, params, expected):
    spec = cached_build(family, *params)
    classes = spec.torus_classes()
    assert isinstance(classes[0], TorusClass)
    # the split class (representative e) always sorts first
    assert classes[0].representative.is_identity()
    dims = [c.minus_dimension for c in classes]
    assert dims == sorted(dims, reverse=True)
    for c in classes:
        assert c.representative.is_involution()
    # representatives are pairwise non-conjugate: counts add up over the
    # involutions of the real-root reflection group
    total = sum(c.orbit_size for c in classes)
    assert total >= len(classes)


def test_classification_counts_once_more():
    counts = {n: len(cached_build("GL", n).torus_classes()) for n in range(1, 6)}
    assert counts == {1: 1, 2: 2, 3: 2, 4: 3, 5: 3}
    assert len(cached_build("SL2n", 3).torus_classes()) == 1
    assert len(cached_build("Ustar", 3).torus_classes()) == 1
    assert len(cached_build("Restriction", 3).torus_classes()) == 1


def test_classification_direct_construction():
    theta = _neg_identity_lattice(4)
    classes = torus_classification(theta)
    assert len(classes) == 3
    assert sum(c.orbit_size for c in classes) == 10  # involutions of S4 + e
    assert sorted(c.minus_dimension for c in classes) == [2, 3, 4]
    assert sorted(
        canonical_key(c.representative) for c in classes
    ) == [canonical_key(c.representative) for c in classes]


def _psi0_involution_count(spec):
    """Involutions of W(Psi0), enumerated from the reflections of Psi0."""
    rank = spec.group.rank
    gens = {root_reflection(a, rank) for a in spec.lattice.psi0()}
    return sum(
        (w * w).is_identity() for w in enumerate_subgroup([identity(rank), *gens])
    )


# closed forms past the oracle's reach: class k of GL(n) has
# n!/(k! 2^k (n-2k)!) members and minus-dimension n-k; class k of U(p,q)
# has C(q,k) members and minus-dimension q-k
CLOSED_FORMS = [
    (
        "GL",
        (n,),
        [
            (n - k, factorial(n) // (factorial(k) * 2**k * factorial(n - 2 * k)))
            for k in range(n // 2 + 1)
        ],
    )
    for n in (6, 7)
] + [
    ("Upq", (p, q), [(q - k, comb(q, k)) for k in range(q + 1)])
    for p, q in ((4, 4), (5, 3))
]


@pytest.mark.parametrize(
    "family,params,expected",
    CLOSED_FORMS,
    ids=[f + "-" + "x".join(map(str, p)) for f, p, _ in CLOSED_FORMS],
)
def test_classification_closed_forms(family, params, expected):
    spec = cached_build(family, *params)
    classes = spec.torus_classes()
    assert [(c.minus_dimension, c.orbit_size) for c in classes] == expected
    assert [c.index for c in classes] == list(range(len(expected)))
    assert sum(c.orbit_size for c in classes) == _psi0_involution_count(spec)


@pytest.mark.parametrize(
    "rows,message",
    [
        # -e1 with e2 <-> e3: the restricted root (1, -1/2, 1/2) reflects
        # with denominators 3, so no conjugate is a signed permutation
        (((-1, 0, 0), (0, 0, 1), (0, 1, 0)), "reflection does not normalize"),
        # diag(-1, -1, 1): the reflection in e1 conjugates (1 2) to a signed
        # permutation outside W(Psi0) = S2
        (((-1, 0, 0), (0, -1, 0), (0, 0, 1)), "conjugate leaves the reflection"),
    ],
    ids=["non-integral", "outside-subgroup"],
)
def test_classification_rejects_non_normalizing_reflections(rows, message):
    with pytest.raises(ValueError, match=message):
        torus_classification(ThetaLattice(symmetric_group(3), rows))
