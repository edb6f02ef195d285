import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from korbits.weyl import (
    RANK_CAP,
    NotASubgroup,
    NotInGroup,
    RankMismatch,
    SignedPerm,
    SubgroupTooLarge,
    canonical_key,
    closure,
    conjugacy_classes,
    coset_space,
    enumerate_subgroup,
    even_hyperoctahedral_group,
    from_one_line,
    hyperoctahedral_group,
    identity,
    product_symmetric_group,
    sign_flip,
    symmetric_group,
    transposition,
)
from oracle import naive_length
from support import flip, perm, tr


@st.composite
def signed_perms(draw, rank=4):
    images = draw(st.permutations(list(range(1, rank + 1))))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * rank))
    return SignedPerm(tuple(s * v for s, v in zip(signs, images)))


def test_signed_perm_validation():
    with pytest.raises(ValueError):
        SignedPerm((1, 1, 3))
    with pytest.raises(ValueError):
        SignedPerm((1, 4))
    with pytest.raises(RankMismatch):
        perm(2, 1) * perm(2, 1, 3)


def _act(w, j):
    """Signed image of basis index j (negative j means the flipped vector)."""
    img = w.images[abs(j) - 1]
    return img if j > 0 else -img


@given(signed_perms(), signed_perms(), st.integers(1, 4))
def test_composition_convention(w, v, j):
    # (w*v) acts by v first: e_j -> v(j) -> w(v(j)), signs multiplying through
    assert _act(w * v, j) == _act(w, _act(v, j))


@given(signed_perms())
def test_apply_on_vectors(w):
    basis = [tuple(1 if k == i else 0 for k in range(4)) for i in range(4)]
    for j in range(1, 5):
        img = w.apply(basis[j - 1])
        k = _act(w, j)
        assert img == tuple(
            (1 if k > 0 else -1) if idx == abs(k) - 1 else 0 for idx in range(4)
        )


@given(signed_perms())
def test_inverse_and_involution(w):
    e = identity(4)
    assert w * w.inverse() == e
    assert w.inverse() * w == e
    assert w.is_involution() == (w * w == e)


@given(signed_perms(), signed_perms())
def test_conjugate_by(w, t):
    assert w.conjugate_by(t) == t * w * t.inverse()


def test_cycle_string():
    assert identity(3).cycle_string() == "e"
    assert tr(1, 2, 3).cycle_string() == "(1 2)"
    assert perm(2, 3, 1).cycle_string() == "(1 2 3)"
    assert flip((1,), 2).cycle_string() == "e[-+]"
    assert SignedPerm((-2, 1)).cycle_string() == "(1 2)[-+]"


def test_from_one_line():
    assert from_one_line([3, 1, 2]) == perm(3, 1, 2)
    assert from_one_line((-1, 2)) == flip((1,), 2)


GROUPS = [
    (symmetric_group(3), 6, 3),
    (symmetric_group(4), 24, 6),
    (hyperoctahedral_group(2), 8, 4),
    (hyperoctahedral_group(3), 48, 9),
    (even_hyperoctahedral_group(3), 24, 6),
    (even_hyperoctahedral_group(4), 192, 12),
    (product_symmetric_group(2), 4, 2),
    (product_symmetric_group(3), 36, 6),
    # the edge cases of each kind: rank one, D2 = A1 x A1, D of odd rank
    (symmetric_group(1), 1, 0),
    (hyperoctahedral_group(1), 2, 1),
    (even_hyperoctahedral_group(1), 1, 0),
    (even_hyperoctahedral_group(2), 4, 2),
    (even_hyperoctahedral_group(5), 1920, 20),
    (product_symmetric_group(1), 1, 0),
]


@given(st.data())
def test_unchecked_products_are_signed_perms(data):
    # products, inverses and enumerated elements skip validation; each must
    # equal its rebuild through the validating constructor
    group = data.draw(st.sampled_from([g for g, _, _ in GROUPS]))
    elements = list(group.elements())
    a = data.draw(st.sampled_from(elements))
    b = data.draw(st.sampled_from(elements))
    for x in elements + [a * b, a.inverse()]:
        assert type(x.images) is tuple
        rebuilt = SignedPerm(x.images)
        assert rebuilt == x and hash(rebuilt) == hash(x)


@pytest.mark.parametrize("group,order,npos", GROUPS)
def test_group_orders_and_roots(group, order, npos):
    elements = group.element_set()
    assert group.order == order
    assert len(elements) == order
    assert len(group.positive_roots()) == npos
    for s in group.simple_reflections():
        assert group.length(s) == 1
        assert s.is_involution()


@pytest.mark.parametrize("group,order,npos", GROUPS)
def test_longest_element(group, order, npos):
    w0 = group.longest_element()
    lengths = {w: group.length(w) for w in group.element_set()}
    assert lengths[w0] == npos
    assert sum(1 for v in lengths.values() if v == npos) == 1
    assert w0 * w0 == group.identity()


@pytest.mark.parametrize("group,order,npos", GROUPS)
def test_length_properties(group, order, npos):
    w0 = group.longest_element()
    for w in group.element_set():
        assert group.length(w) == group.length(w.inverse())
        assert group.length(w0 * w) == npos - group.length(w)


@pytest.mark.parametrize("group,order,npos", GROUPS)
def test_length_matches_root_counting(group, order, npos):
    for w in group.element_set():
        assert group.length(w) == naive_length(group.kind, group.rank, w)


@pytest.mark.parametrize("group,order,npos", GROUPS)
def test_left_ascent_matches_root_counting(group, order, npos):
    lengths = {
        w: naive_length(group.kind, group.rank, w) for w in group.element_set()
    }
    for s in group.simple_reflections():
        for w, ell in lengths.items():
            assert group.is_left_ascent(s, w) == (lengths[s * w] > ell)


def test_membership():
    s3 = symmetric_group(3)
    assert s3.contains(perm(2, 3, 1))
    assert not s3.contains(flip((1,), 3))
    assert even_hyperoctahedral_group(2).contains(flip((1, 2), 2))
    assert not even_hyperoctahedral_group(2).contains(flip((1,), 2))
    assert product_symmetric_group(2).contains(perm(2, 1, 3, 4))
    assert not product_symmetric_group(2).contains(perm(3, 1, 2, 4))
    with pytest.raises(NotInGroup):
        s3.length(flip((1,), 3))
    with pytest.raises(RankMismatch):
        s3.length(perm(1, 2))


def test_sorted_elements_start_at_identity():
    group = hyperoctahedral_group(2)
    ordered = group.sorted_elements()
    assert ordered[0] == group.identity()
    assert list(ordered) == sorted(ordered, key=canonical_key)


def test_element_set_cap():
    with pytest.raises(SubgroupTooLarge):
        hyperoctahedral_group(9).element_set()


def test_rank_cap():
    assert symmetric_group(RANK_CAP).rank == RANK_CAP
    for build in (symmetric_group, hyperoctahedral_group, even_hyperoctahedral_group):
        with pytest.raises(SubgroupTooLarge):
            build(RANK_CAP + 1)
    with pytest.raises(SubgroupTooLarge):
        product_symmetric_group(RANK_CAP // 2 + 1)


def test_enumerate_subgroup():
    generated = enumerate_subgroup([tr(1, 2, 3), tr(2, 3, 3)])
    assert generated == symmetric_group(3).element_set()
    assert enumerate_subgroup([identity(2)]) == frozenset({identity(2)})
    with pytest.raises(ValueError):
        enumerate_subgroup([])
    with pytest.raises(SubgroupTooLarge):
        enumerate_subgroup([tr(1, 2, 4), tr(2, 3, 4), tr(3, 4, 4)], cap=5)
    with pytest.raises(RankMismatch):
        enumerate_subgroup([tr(1, 2, 2), tr(1, 2, 3)])
    # the traversal helper behind it keeps its seeds and honours the cap
    assert closure([5, 3], lambda x: [x // 2]) == {0, 1, 2, 3, 5}
    assert closure([identity(2), tr(1, 2, 2)], lambda x: []) == {
        identity(2),
        tr(1, 2, 2),
    }
    with pytest.raises(SubgroupTooLarge):
        closure([0], lambda x: [x + 1], cap=10)


def test_coset_space_s3():
    s3 = symmetric_group(3)
    cosets = coset_space([tr(1, 2, 3)], s3)
    assert len(cosets) == 3
    seen = set()
    for rep, members in cosets:
        assert rep in members
        assert len(members) == 2
        assert rep == min(members, key=canonical_key)
        seen |= members
    assert seen == s3.element_set()
    assert cosets[0][0] == identity(3)


def test_coset_space_rejects_outside_generators():
    with pytest.raises(NotASubgroup):
        coset_space([flip((1,), 3)], symmetric_group(3))


def test_coset_space_trivial_subgroup():
    s3 = symmetric_group(3)
    cosets = coset_space([], s3)
    assert len(cosets) == 6
    assert all(len(members) == 1 for _, members in cosets)


def test_conjugacy_classes_s3():
    s3 = symmetric_group(3)
    classes = conjugacy_classes(s3.element_set(), s3.element_set())
    assert sorted(len(c) for c in classes) == [1, 2, 3]


def test_conjugacy_classes_restricted_conjugators():
    # conjugating only by a subgroup refines the full classes
    s4 = symmetric_group(4)
    sub = enumerate_subgroup([tr(1, 2, 4), tr(3, 4, 4)])
    full = conjugacy_classes(s4.element_set(), s4.element_set())
    fine = conjugacy_classes(s4.element_set(), sub)
    assert len(fine) > len(full)
    for block in fine:
        assert any(block <= big for big in full)


def test_matrix_convention():
    w = SignedPerm((3, -1, 2))
    m = w.matrix()
    for j in range(1, 4):
        img = _act(w, j)
        assert m[abs(img) - 1][j - 1] == (1 if img > 0 else -1)
    assert sum(abs(v) for row in m for v in row) == 3


def test_helper_constructors_match_literals():
    assert transposition(1, 3, 3) == tr(1, 3, 3)
    assert sign_flip([2], 3) == flip((2,), 3)
    assert transposition(2, 2, 3) == identity(3)


class TestSignConditionReadings:
    """Two readings of the sign condition carving W out of {±1}^(n+1) ⋊ S_(n+1).

    Reading A requires the product of the first n coordinates of the sign
    vector to be 1; reading B requires the product of all n+1.  Only B gives
    a group, and only B contains the longest elements the rest of the
    pipeline needs, so B is what the package implements.
    """

    @staticmethod
    def _eps(w, k):
        # sign attached to target coordinate k
        return 1 if k in w.images else -1

    @classmethod
    def _reading_a(cls, n):
        from oracle import all_elements

        return {
            w
            for w in all_elements("B", n + 1)
            if math.prod(cls._eps(w, k) for k in range(1, n + 1)) == 1
        }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reading_a_is_not_closed(self, n):
        a_set = self._reading_a(n)
        a = SignedPerm(
            (-(n + 1),) + tuple(range(2, n + 1)) + (1,)
        )  # 1 -> -(n+1), n+1 -> 1
        assert a in a_set
        assert a * a not in a_set  # flips coordinates 1 and n+1

    @pytest.mark.parametrize("n", [1, 3])
    def test_reading_a_misses_the_longest_element(self, n):
        w0 = even_hyperoctahedral_group(n + 1).longest_element()
        assert w0 == sign_flip(range(1, n + 2), n + 1)  # -1 for n odd
        assert w0 not in self._reading_a(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reading_b_is_the_even_flip_group(self, n):
        from oracle import all_elements

        b_set = {
            w
            for w in all_elements("B", n + 1)
            if sum(1 for k in range(1, n + 2) if self._eps(w, k) == -1) % 2 == 0
        }
        group = even_hyperoctahedral_group(n + 1)
        assert b_set == group.element_set()
        w0 = group.longest_element()
        if n % 2:
            assert w0 == sign_flip(range(1, n + 2), n + 1)
        else:
            assert w0 == sign_flip(range(1, n + 1), n + 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reading_b_stabilizer_matches_the_catalog_subgroup(self, n):
        from korbits.catalog import build, wk_subgroup

        group = even_hyperoctahedral_group(n + 1)
        stabilizer = frozenset(
            w for w in group.element_set() if w.permutation()[n] == n + 1
        )
        assert len(stabilizer) == 2**n * math.factorial(n)
        assert group.order == len(stabilizer) * (n + 1)
        assert stabilizer == wk_subgroup(build("SOodd1", n), 0)
