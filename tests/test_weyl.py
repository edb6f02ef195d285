import functools
import math
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

import korbits.weyl
from korbits.twisted import TwistContext, _star
from korbits.weyl import (
    RANK_CAP,
    NotASubgroup,
    NotInGroup,
    CosetTable,
    RankMismatch,
    SignedPerm,
    SubgroupTooLarge,
    WeylGroup,
    canonical_key,
    closure,
    conjugacy_classes,
    enumerate_subgroup,
    even_hyperoctahedral_group,
    hyperoctahedral_group,
    identity,
    product_symmetric_group,
    sign_flip,
    symmetric_group,
    transposition,
)
from oracle import (
    _roots,
    all_elements,
    naive_contains,
    naive_cycle_string,
    naive_length,
    naive_subgroup,
    perm_matrix,
)
from support import canon_blocks, conjugations, flip, perm, sorted_elements, tr


@st.composite
def signed_perms(draw, rank=4):
    images = draw(st.permutations(list(range(1, rank + 1))))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * rank))
    return SignedPerm(tuple(s * v for s, v in zip(signs, images)))


def test_signed_perm_validation():
    # any iterable of images builds an element, and bad images are refused
    assert SignedPerm([2, -1]) == SignedPerm(v for v in (2, -1)) == perm(2, -1)
    assert type(SignedPerm(iter([1]))) is SignedPerm
    for bad in ((1, 1, 3), (1, 4), [0], (v for v in (-2, 2))):
        with pytest.raises(ValueError, match=r"^not a signed permutation: \("):
            SignedPerm(bad)
    with pytest.raises(RankMismatch, match="^rank 2 vs 3$"):
        perm(2, 1) * perm(2, 1, 3)
    with pytest.raises(RankMismatch, match="^rank 3 vs 2$"):
        perm(1, 2, 3) * perm(2, 1)


def test_images_print_as_a_plain_tuple():
    w = perm(2, -1, 3)
    assert f"{w.images}" == "(2, -1, 3)"
    assert f"{perm(1).images}" == "(1,)"
    assert repr(w) == "SignedPerm(2, -1, 3)"
    assert f"{w}" == str(w) == "SignedPerm(2, -1, 3)"


def test_only_the_constructor_validates(monkeypatch):
    # a counter on __post_init__ sees every validation, as a tracer hooking
    # the class attribute would
    elements = list(all_elements("B", 3))
    calls = []
    validate = SignedPerm.__dict__["__post_init__"]

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(SignedPerm, "__post_init__", counting)
    w = SignedPerm((2, -3, 1))
    assert calls == [w]
    products = [w * v for v in elements] + [v.inverse() for v in elements]
    assert len(calls) == 1 and all(type(x) is SignedPerm for x in products)


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
    # column j of the matrix is the image of e_j
    m = perm_matrix(w)
    for j in range(1, 5):
        img = tuple(row[j - 1] for row in m)
        k = _act(w, j)
        assert img == tuple(
            (1 if k > 0 else -1) if idx == abs(k) - 1 else 0 for idx in range(4)
        )


@given(signed_perms())
def test_inverse_and_involution(w):
    e = identity(4)
    assert w * w.inverse() == e
    assert w.inverse() * w == e
    assert (w * w).is_identity() == (w * w == e)


def test_cycle_string():
    assert identity(3).cycle_string() == "e"
    assert tr(1, 2, 3).cycle_string() == "(1 2)"
    assert perm(2, 3, 1).cycle_string() == "(1 2 3)"
    assert flip((1,), 2).cycle_string() == "e[-+]"
    assert SignedPerm((-2, 1)).cycle_string() == "(1 2)[-+]"


@st.composite
def marked_perms(draw, max_rank=12):
    """Signed permutations of rank 0..max_rank, with all signs plus, all
    minus or mixed, so that "e" and all-negative elements come up often."""
    rank = draw(st.integers(0, max_rank))
    images = draw(st.permutations(list(range(1, rank + 1))))
    signs = draw(
        st.sampled_from([(1,) * rank, (-1,) * rank])
        | st.tuples(*[st.sampled_from((1, -1))] * rank)
    )
    return SignedPerm(tuple(s * v for s, v in zip(signs, images)))


@given(marked_perms())
@example(identity(12))
@example(SignedPerm(range(-1, -13, -1)))
@example(perm(-1, 3, 2, -4, 5))
@example(perm(-2, -1, -3))
def test_cycle_string_matches_oracle(w):
    assert w.cycle_string() == naive_cycle_string(w)


def test_cycle_string_at_the_rank_cap():
    # one cycle through every coordinate up to RANK_CAP, with sign flips,
    # and the reversal's transpositions: the numerals reach the cap
    n = RANK_CAP
    cycle = SignedPerm((-1 if j % 3 == 0 else 1) * (j % n + 1) for j in range(1, n + 1))
    reversal = SignedPerm(n - j if j % 5 else j - n for j in range(n))
    for w in (cycle, reversal):
        assert w.cycle_string() == naive_cycle_string(w)
    assert cycle.cycle_string().startswith("(1 2 3 ")
    assert f" {n})[" in cycle.cycle_string()
    assert reversal.cycle_string().startswith(f"(1 {n})")


def test_from_one_line():
    assert SignedPerm([3, 1, 2]) == perm(3, 1, 2)
    assert SignedPerm((-1, 2)) == flip((1,), 2)


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
    # products, inverses, reflections and coset representatives skip
    # validation; each must equal its rebuild through the validating
    # constructor (the trivial subgroup's representatives are all of W)
    group = data.draw(st.sampled_from([g for g, _, _ in GROUPS]))
    elements = list(CosetTable([], group).reps)
    a = data.draw(st.sampled_from(elements))
    b = data.draw(st.sampled_from(elements))
    reflections = [*group.simple_reflections(), group.longest_element()]
    for x in elements + reflections + [a * b, a.inverse()]:
        assert type(x.images) is tuple
        rebuilt = SignedPerm(x.images)
        assert rebuilt == x and hash(rebuilt) == hash(x)


@pytest.mark.parametrize("group,order,npos", GROUPS)
def test_group_orders_and_roots(group, order, npos):
    elements = all_elements(group.kind, group.rank)
    assert group.order == order
    assert len(elements) == order
    # the root terms are the oracle's positive roots (leading entry > 0)
    positive = {
        a for a in _roots(group.kind, group.rank) if next(c for c in a if c) > 0
    }
    terms = list(group._root_terms())
    assert len(positive) == len(terms) == npos
    for i, ci, j, cj in terms:
        root = [0] * group.rank
        root[i], root[j] = ci, cj
        assert tuple(root) in positive
    for s in group.simple_reflections():
        assert group.length(s) == 1
        assert (s * s).is_identity()


@pytest.mark.parametrize("group,order,npos", GROUPS)
def test_longest_element(group, order, npos):
    w0 = group.longest_element()
    lengths = {w: group.length(w) for w in all_elements(group.kind, group.rank)}
    assert lengths[w0] == npos
    assert sum(1 for v in lengths.values() if v == npos) == 1
    assert w0 * w0 == group.identity()


@pytest.mark.parametrize("group,order,npos", GROUPS)
def test_length_properties(group, order, npos):
    w0 = group.longest_element()
    for w in all_elements(group.kind, group.rank):
        assert group.length(w) == group.length(w.inverse())
        assert group.length(w0 * w) == npos - group.length(w)


@pytest.mark.parametrize("group,order,npos", GROUPS)
def test_length_matches_root_counting(group, order, npos):
    for w in all_elements(group.kind, group.rank):
        assert group.length(w) == naive_length(group.kind, group.rank, w)


@st.composite
def group_elements(draw, max_rank=10):
    """A group of any kind at rank 1..max_rank (AxA at even ranks), and a
    random element of it: each block permuted, signs by the kind's rule."""
    kind = draw(st.sampled_from(["A", "B", "D", "AxA"]))
    blocks = 2 if kind == "AxA" else 1
    r = draw(st.integers(1, max_rank // blocks))
    images = []
    for b in range(blocks):
        images += draw(st.permutations(list(range(b * r + 1, (b + 1) * r + 1))))
    if kind in ("B", "D"):
        signs = draw(st.tuples(*[st.sampled_from((1, -1))] * len(images)))
        images = [s * v for s, v in zip(signs, images)]
        if kind == "D" and signs.count(-1) % 2:
            images[-1] = -images[-1]
    return WeylGroup(kind, blocks * r), SignedPerm(images)


@settings(max_examples=400)
@given(group_elements())
def test_length_matches_root_counting_at_ranks_up_to_ten(case):
    group, w = case
    assert group.contains(w)
    assert group.length(w) == naive_length(group.kind, group.rank, w)


@functools.cache
def _members(kind, rank):
    return all_elements(kind, rank)


@pytest.mark.parametrize(
    "kind,rank",
    [(k, n) for k in ("A", "B", "D", "AxA") for n in range(6) if k != "AxA" or n % 2 == 0],
)
def test_membership_matches_enumeration(kind, rank):
    # every signed permutation of the rank, in the group or not
    group = WeylGroup(kind, rank)
    members = _members(kind, rank)
    for w in _members("B", rank):
        assert group.contains(w) == (w in members) == naive_contains(kind, rank, w)


@pytest.mark.parametrize("group,order,npos", GROUPS)
def test_left_ascent_matches_root_counting(group, order, npos):
    # The twisted sweep's move under the untwisted context (t = b = e) leaves
    # w alone, gain 0, exactly at a left descent of s, on every element.
    one = group.identity()
    rows = TwistContext(group, one, one)._star_rows
    lengths = {
        w: naive_length(group.kind, group.rank, w)
        for w in all_elements(group.kind, group.rank)
    }
    for s, row in zip(group.simple_reflections(), rows, strict=True):
        for w, ell in lengths.items():
            assert (_star(row, w)[1] == 0) == (lengths[s * w] < ell)


def test_membership():
    s3 = symmetric_group(3)
    assert s3.contains(perm(2, 3, 1))
    assert not s3.contains(flip((1,), 3))
    assert even_hyperoctahedral_group(2).contains(flip((1, 2), 2))
    assert not even_hyperoctahedral_group(2).contains(flip((1,), 2))
    assert product_symmetric_group(2).contains(perm(2, 1, 3, 4))
    assert not product_symmetric_group(2).contains(perm(3, 1, 2, 4))
    # cross-block elements: the swap of the halves, one value crossing each
    # way across the middle, and one crossing each way at the ends
    assert not product_symmetric_group(2).contains(perm(3, 4, 1, 2))
    assert not product_symmetric_group(3).contains(perm(4, 5, 6, 1, 2, 3))
    assert not product_symmetric_group(3).contains(perm(1, 2, 4, 3, 5, 6))
    assert not product_symmetric_group(3).contains(perm(6, 2, 3, 4, 5, 1))
    assert product_symmetric_group(3).contains(perm(3, 1, 2, 6, 4, 5))
    with pytest.raises(NotInGroup):
        s3.length(flip((1,), 3))
    with pytest.raises(RankMismatch):
        s3.length(perm(1, 2))


@given(
    st.sampled_from(
        [(k, n) for k in ("A", "B", "D", "AxA") for n in range(1, 5) if k != "AxA" or n % 2 == 0]
    ),
    st.randoms(use_true_random=False),
)
def test_canonical_key_orders_as_naive_key(kind_rank, rnd):
    # all of the group, in any order, sorts by canonical_key as by the
    # oracle's two-tuple key
    group = WeylGroup(*kind_rank)
    elements = list(_members(*kind_rank))
    rnd.shuffle(elements)
    assert tuple(sorted(elements, key=canonical_key)) == sorted_elements(group)


def test_sorted_elements_start_at_identity():
    # the trivial subgroup's representatives list all of W, in canonical order
    group = hyperoctahedral_group(2)
    ordered = CosetTable([], group).reps
    assert ordered[0] == group.identity()
    assert list(ordered) == sorted(ordered, key=canonical_key)
    assert set(ordered) == all_elements("B", 2)


def test_element_set_cap():
    with pytest.raises(SubgroupTooLarge):
        hyperoctahedral_group(9).check_enumerable()
    hyperoctahedral_group(8).check_enumerable()


def test_rank_cap():
    assert symmetric_group(RANK_CAP).rank == RANK_CAP
    for build in (symmetric_group, hyperoctahedral_group, even_hyperoctahedral_group):
        with pytest.raises(SubgroupTooLarge):
            build(RANK_CAP + 1)
    with pytest.raises(SubgroupTooLarge):
        product_symmetric_group(RANK_CAP // 2 + 1)


def test_enumerate_subgroup():
    generated = enumerate_subgroup([tr(1, 2, 3), tr(2, 3, 3)])
    assert generated == all_elements("A", 3)
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
    table = CosetTable([tr(1, 2, 3)], s3)
    blocks = canon_blocks(table, all_elements("A", 3))
    assert len(table.reps) == len(blocks) == 3
    seen = set()
    for members in blocks:
        rep = table.canon(next(iter(members)))
        assert rep in members and rep in table.reps
        assert len(members) == 2
        assert rep == min(members, key=canonical_key)
        seen |= members
    assert seen == all_elements("A", 3)
    assert table.reps[0] == identity(3)


def test_coset_reps_come_sorted_without_canonical_key(monkeypatch):
    # the reps come out in canonical_key order by construction, bucketed by
    # sign vector, with no call of canonical_key; the subgroup's sign
    # witnesses leave some sign vectors out at some words
    calls = []

    def counting(w):
        calls.append(w)
        return canonical_key(w)

    monkeypatch.setattr(korbits.weyl, "canonical_key", counting)
    group = hyperoctahedral_group(4)
    table = CosetTable([perm(2, -1, 3, 4), tr(3, 4, 4)], group)
    reps = table.reps
    assert calls == []
    assert len({w.signs() for w in reps}) > 1
    assert reps == tuple(sorted(reps, key=canonical_key))
    assert set(reps) == {table.canon(w) for w in all_elements("B", 4)}


def _signed_images(draw, kind, points, rank):
    """An element of the group of ``kind`` at ``rank`` that permutes and
    signs only ``points``, by the kind's sign rule; a draw that would fix
    every point is turned by one place, so the element moves some point."""
    out = list(range(1, rank + 1))
    images = draw(st.permutations(points))
    if images == list(points):
        images = images[1:] + images[:1]
    signs = [1] * len(points)
    if kind in ("B", "D"):
        signs = list(draw(st.tuples(*[st.sampled_from((1, -1))] * len(points))))
        if kind == "D" and signs.count(-1) % 2:
            signs[0] = -signs[0]
    for p, q, s in zip(points, images, signs):
        out[p - 1] = s * q
    return SignedPerm(out)


@st.composite
def subgroup_cases(draw, max_rank=6):
    """A group of kind A, B, D or AxA at rank up to ``max_rank``, one to
    three generators of a subgroup, each moving two to four coordinates of
    one block (so the naive closure stays small), and three elements of the
    group, each the product of one element per block."""
    kind = draw(st.sampled_from(["A", "B", "D", "AxA"]))
    blocks = 2 if kind == "AxA" else 1
    r = draw(st.integers(2 // blocks, max_rank // blocks))
    rank = blocks * r
    block_points = [list(range(b * r + 1, (b + 1) * r + 1)) for b in range(blocks)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        points = draw(st.permutations(draw(st.sampled_from(block_points))))
        size = draw(st.integers(min(2, r), min(4, r)))
        gens.append(_signed_images(draw, kind, sorted(points[:size]), rank))
    group = WeylGroup(kind, rank)
    xs = []
    for _ in range(3):
        x = group.identity()
        for points in block_points:
            x = x * _signed_images(draw, kind, points, rank)
        xs.append(x)
    return group, gens, xs


@settings(max_examples=150)
@given(subgroup_cases())
def test_levels_keep_inverses_and_canon_is_the_least_image(case):
    # canon is the least element of the naive coset, every cached level
    # entry (m, v, v^-1) has v(b) = m and v v^-1 = e, and no child level
    # takes an inverse
    group, gens, xs = case
    assume(len(enumerate_subgroup(gens)) <= 400)
    members = naive_subgroup(gens, group.rank)
    table = CosetTable(gens, group)
    depth, inverses = [0], []
    child, inverse = CosetTable._child, SignedPerm.inverse

    def counting_child(self, *args):
        depth[0] += 1
        try:
            return child(self, *args)
        finally:
            depth[0] -= 1

    def counting_inverse(w):
        inverses.append(depth[0])
        return inverse(w)

    with mock.patch.object(CosetTable, "_child", counting_child), mock.patch.object(
        SignedPerm, "inverse", counting_inverse
    ):
        for x in xs + [group.identity()]:
            assert group.contains(x)
            assert table.canon(x) == min((h * x for h in members), key=canonical_key)
    assert not any(inverses)
    one = group.identity()
    for level_gens, transversal in table._levels.values():
        for g, g_inv in level_gens:
            assert SignedPerm(g) * SignedPerm(g_inv) == one
        for b, (m, v, v_inv) in transversal.items():
            assert v[b - 1] == m <= b
            assert SignedPerm(v) * SignedPerm(v_inv) == one


def test_coset_table_rejects_outside_generators():
    with pytest.raises(NotASubgroup):
        CosetTable([flip((1,), 3)], symmetric_group(3))


def test_coset_space_trivial_subgroup():
    table = CosetTable([], symmetric_group(3))
    assert len(table.reps) == 6 and table.size == 1
    blocks = canon_blocks(table, all_elements("A", 3))
    assert len(blocks) == 6
    assert all(len(members) == 1 for members in blocks)


def test_conjugacy_classes_s3():
    s3 = all_elements("A", 3)
    classes = conjugacy_classes(s3, conjugations(s3))
    assert sorted(len(c) for _, c in classes) == [1, 2, 3]


def test_conjugacy_classes_reject_conjugates_outside_the_set():
    # (1 2) conjugates (2 3) to (1 3), which is not supplied
    with pytest.raises(ValueError, match="leaves the supplied element set"):
        conjugacy_classes([tr(2, 3, 3)], conjugations([tr(1, 2, 3)]))


def test_conjugacy_classes_restricted_conjugators():
    # conjugating only by a subgroup refines the full classes
    s4 = all_elements("A", 4)
    sub = enumerate_subgroup([tr(1, 2, 4), tr(3, 4, 4)])
    full = [c for _, c in conjugacy_classes(s4, conjugations(s4))]
    fine = [c for _, c in conjugacy_classes(s4, conjugations(sub))]
    assert len(fine) > len(full)
    for block in fine:
        assert any(block <= big for big in full)


def test_matrix_convention():
    w = SignedPerm((3, -1, 2))
    m = perm_matrix(w)
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
        b_set = {
            w
            for w in all_elements("B", n + 1)
            if sum(1 for k in range(1, n + 2) if self._eps(w, k) == -1) % 2 == 0
        }
        group = even_hyperoctahedral_group(n + 1)
        assert b_set == {w for w in all_elements("B", n + 1) if group.contains(w)}
        assert len(b_set) == group.order
        w0 = group.longest_element()
        if n % 2:
            assert w0 == sign_flip(range(1, n + 2), n + 1)
        else:
            assert w0 == sign_flip(range(1, n + 1), n + 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reading_b_stabilizer_matches_the_catalog_subgroup(self, n):
        from korbits.catalog import build

        group = even_hyperoctahedral_group(n + 1)
        stabilizer = frozenset(
            w for w in all_elements("D", n + 1) if abs(w[n]) == n + 1
        )
        assert len(stabilizer) == 2**n * math.factorial(n)
        assert group.order == len(stabilizer) * (n + 1)
        gens = build("SOodd1", n).descriptor(0).wk_generators
        assert stabilizer == enumerate_subgroup(gens)
