from fractions import Fraction
from math import comb, factorial

import pytest

from korbits.tori import (
    ThetaLattice,
    TorusClass,
    _simple_lines,
    root_lines,
    torus_classification,
)
from korbits.weyl import (
    RANK_CAP,
    SignedPerm,
    _reflection,
    canonical_key,
    enumerate_subgroup,
    hyperoctahedral_group,
    identity,
    symmetric_group,
)
from oracle import (
    all_roots,
    apply,
    psi0,
    restricted_roots,
    root_reflection,
)
from support import assert_root_lines_match_dense, cached_build, flip, perm, tr


def _neg_identity_lattice(n):
    return ThetaLattice(symmetric_group(n), flip(tuple(range(1, n + 1)), n))


def test_lattice_validation():
    s3 = symmetric_group(3)
    with pytest.raises(ValueError, match="^lattice map is not an involution$"):
        ThetaLattice(s3, perm(2, -1, 3))  # squares to -1 on e1 and e2, not e
    with pytest.raises(ValueError):
        ThetaLattice(s3, identity(2))


def test_lattice_validation_at_rank_cap():
    # the involution check is one product of signed permutations, so a
    # lattice at the rank cap builds quickly
    n = RANK_CAP
    swaps = SignedPerm(-((j ^ 1) + 1) for j in range(n))  # -(1 2)(3 4)...
    assert ThetaLattice(symmetric_group(n), swaps).rank == n
    cycle = SignedPerm([*range(2, n + 1), 1])
    with pytest.raises(ValueError, match="^lattice map is not an involution$"):
        ThetaLattice(symmetric_group(n), cycle)


def _dense(term, rank):
    i, ci, j, cj = term
    v = [0] * rank
    v[i], v[j] = ci, cj
    return tuple(v)


def test_lattice_apply_and_signed_perm():
    theta = _neg_identity_lattice(3)
    assert apply(theta, (1, 0, -2)) == (-1, 0, 2)
    assert theta.rows == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert_root_lines_match_dense(theta)
    swap = ThetaLattice(symmetric_group(3), tr(2, 3, 3))
    assert swap.rows == ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    assert_root_lines_match_dense(swap)
    with pytest.raises(ValueError):
        apply(ThetaLattice(symmetric_group(2), tr(1, 2, 2)), (1,))


RANK_8_LATTICES = (
    [("GL", (n,)) for n in range(1, 9)]
    + [(f, (n,)) for f in ("SL2n", "Ustar") for n in range(1, 5)]
    + [("SOodd1", (n,)) for n in range(1, 8)]
    + [("SOeven1", (n,)) for n in range(1, 9)]
    + [("Upq", (p, q)) for q in range(1, 5) for p in range(q, 9 - q)]
    + [("Restriction", (r,)) for r in range(1, 5)]
)


@pytest.mark.parametrize("family,params", RANK_8_LATTICES)
def test_lattice_apply_matches_dense_product_on_catalog(family, params):
    theta = cached_build(family, *params).lattice
    assert theta.rank <= 8
    assert_root_lines_match_dense(theta)


def test_root_reflection_shapes():
    # the oracle's rational matrices against the package's reflections in terms
    assert root_reflection((1, -1, 0)) == tr(1, 2, 3) == _reflection((0, 1, 1, -1), 3)
    assert root_reflection((0, 1, 1)) == perm(1, -3, -2) == _reflection((1, 1, 2, 1), 3)
    assert root_reflection((0, 0, 1)) == flip((3,), 3) == _reflection((2, 1, 2, 1), 3)
    # only the line matters for the hyperplane
    assert root_reflection((2, 0, 0)) == flip((1,), 3)
    with pytest.raises(ValueError):
        root_reflection((1, 2, 0))
    for term in hyperoctahedral_group(4)._root_terms():
        assert _reflection(term, 4) == root_reflection(_dense(term, 4))


def test_psi0_for_split_involution():
    theta = _neg_identity_lattice(3)
    assert set(psi0(theta)) == set(all_roots(theta))
    assert len(all_roots(theta)) == 6
    assert root_lines(theta)[0] == tuple(theta.group._root_terms())


def test_restricted_roots_non_reduced():
    # the rank-3 hermitian lattice restricts two root lengths onto one line
    spec = cached_build("Upq", 2, 1)
    rr = restricted_roots(spec.lattice)
    assert (0, Fraction(1), Fraction(-1)) in {tuple(v) for v in rr}
    assert (0, Fraction(1, 2), Fraction(-1, 2)) in {tuple(v) for v in rr}
    by_line = {}
    for v in rr:
        scale = next(c for c in v if c)
        by_line.setdefault(tuple(c / scale for c in v), set()).add(abs(scale))
    assert any(len(lengths) == 2 for lengths in by_line.values())
    # the package keeps that line once, as its primitive integer vector
    assert root_lines(spec.lattice)[1].count({1: 1, 2: -1}) == 1


def test_minus_space_dimensions():
    assert _neg_identity_lattice(4).minus_dimension == 4
    assert cached_build("Upq", 2, 2).lattice.minus_dimension == 2
    assert cached_build("SOeven1", 3).lattice.minus_dimension == 1


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
        assert (c.representative * c.representative).is_identity()
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
    gens = {root_reflection(a) for a in psi0(spec.lattice)}
    return sum(
        (w * w).is_identity() for w in enumerate_subgroup([identity(rank), *gens])
    )


# closed forms past the oracle's reach: class k of GL(n) has
# n!/(k! 2^k (n-2k)!) members and minus-dimension n-k; class k of U(p,q)
# has C(q,k) members and minus-dimension q-k.  The simple restricted lines
# number n-1 for GL(n) (type A) and q for U(p,q) (type BC_q).
CLOSED_FORMS = [
    (
        "GL",
        (n,),
        [
            (n - k, factorial(n) // (factorial(k) * 2**k * factorial(n - 2 * k)))
            for k in range(n // 2 + 1)
        ],
    )
    for n in (6, 7, 8, 9, 10)
] + [
    ("Upq", (p, q), [(q - k, comb(q, k)) for k in range(q + 1)])
    for p, q in ((4, 4), (5, 3), (5, 4), (6, 3), (12, 4), (40, 6), (100, 1))
]

# W(Psi0) is enumerated only while the oracle's Psi0 has at most the 42
# roots of S7; past that (GL(8), GL(9), GL(10)) the closed form alone is
# asserted
ENUMERATED_PSI0_ROOTS = 42


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
    simple = params[0] - 1 if family == "GL" else params[1]
    assert len(_simple_lines(root_lines(spec.lattice)[1])) == simple
    if len(psi0(spec.lattice)) <= ENUMERATED_PSI0_ROOTS:
        assert sum(c.orbit_size for c in classes) == _psi0_involution_count(spec)


@pytest.mark.parametrize(
    "w,line,message",
    [
        # -e1 with e2 <-> e3: the restricted root (1, -1/2, 1/2) reflects
        # with denominators 3, so no conjugate is a signed permutation
        (perm(-1, 3, 2), {0: 2, 1: -1, 2: 1}, "reflection does not normalize"),
        # diag(-1, -1, 1): the reflection in e1 conjugates (1 2) to a signed
        # permutation outside W(Psi0) = S2
        (flip((1, 2), 3), {0: 1}, "conjugate leaves the reflection"),
    ],
    ids=["non-integral", "outside-subgroup"],
)
def test_classification_rejects_non_normalizing_reflections(w, line, message):
    # the offending line is not simple, so no conjugation of the walk takes
    # it: the check that each line makes once, before the walk, raises
    theta = ThetaLattice(symmetric_group(3), w)
    lines = root_lines(theta)[1]
    assert lines.index(line) not in _simple_lines(lines)
    with pytest.raises(ValueError, match=message):
        torus_classification(theta)
