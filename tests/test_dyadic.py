import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import korbits.dyadic
from korbits.catalog import GBL, _apply_map, _perm_matrix
from korbits.dyadic import (
    D0,
    D1,
    G0,
    G1,
    GI,
    Dyadic,
    DyadicGauss,
    ExactMatrix,
    NotAUnit,
    NotMonomial,
    UCIRC,
    UHYP,
    TorusStructure,
    diagonal_structure,
    placed,
)
from korbits.weyl import SignedPerm
from oracle import _from_q, _q, naive_det, naive_inverse, perm_matrix
from support import flip, tr

dyadics = st.builds(
    Dyadic, st.integers(min_value=-60, max_value=60), st.integers(min_value=-6, max_value=6)
)
gausses = st.builds(DyadicGauss, dyadics, dyadics)


def test_dyadic_normalization():
    assert Dyadic(4) == Dyadic(1, 2)
    assert Dyadic(2, -1) == D1
    assert Dyadic(0, 5) == D0
    assert Dyadic(12, -2) == Dyadic(3, 0)


def test_dyadic_fraction_roundtrip():
    # the oracle's conversions through Fraction meet the dyadic normal form
    q = Fraction(-5, 8)
    z = _from_q((q, Fraction(3)))
    assert z == DyadicGauss(Dyadic(-5, -3), Dyadic(3))
    assert _q(z) == (q, Fraction(3))
    with pytest.raises(ArithmeticError):
        _from_q((Fraction(1, 3), Fraction(0)))


@given(dyadics, dyadics, dyadics)
def test_dyadic_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == D0
    assert a * b == b * a


def test_gauss_units():
    assert DyadicGauss.of(1, 1).is_unit()
    assert DyadicGauss.of(2).is_unit()
    assert GI.is_unit()
    assert not DyadicGauss.of(3).is_unit()
    assert not DyadicGauss.of(0).is_unit()
    with pytest.raises(NotAUnit):
        DyadicGauss.of(3).inverse()


def test_gauss_inverse():
    z = DyadicGauss.of(1, 1)
    assert z.inverse() == DyadicGauss(Dyadic(1, -1), Dyadic(-1, -1))
    assert z * z.inverse() == G1


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=-9, max_value=9),
)
def test_unit_inverse_matches_fractions(a, b, c):
    # z = i^a (1+i)^b 2^c runs over the units of the Gaussian dyadics
    z = DyadicGauss(Dyadic(1, c))
    for factor in [GI] * a + [DyadicGauss.of(1, 1)] * b:
        z = z * factor
    x, y = _q(z)
    n = x * x + y * y
    assert z.inverse() == _from_q((x / n, -y / n))
    assert z * z.inverse() == G1


@pytest.mark.parametrize("z", [G0, DyadicGauss.of(3), DyadicGauss.of(1, 2)])
def test_non_units_have_no_inverse(z):
    with pytest.raises(NotAUnit, match=f"^{re.escape(str(z))} is not a unit$"):
        z.inverse()


@given(gausses, gausses)
def test_gauss_norm_and_conjugate_multiplicative(a, b):
    assert (a * b).norm() == a.norm() * b.norm()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a.conjugate() * a).norm() == a.norm() * a.norm()


@given(gausses)
def test_gauss_unit_iff_norm_power_of_two(z):
    assert z.is_unit() == (not z.norm().is_zero() and z.norm().is_power_of_two())


# -- the rank-one split realizer, frozen entry by entry --------------------


def test_block_realizer_determinant():
    assert GBL.det() == G1


def test_block_realizer_inverse():
    want = ExactMatrix.from_rows(
        [[G1, -GI], [DyadicGauss(D0, Dyadic(-1, -1)), DyadicGauss.of(Dyadic(1, -1))]]
    )
    assert GBL.inverse() == want
    assert GBL * GBL.inverse() == ExactMatrix.diagonal([1, 1])


def test_block_realizer_conjugation_cocycle():
    cocycle = GBL.inverse() * GBL.conjugate()
    want = ExactMatrix.from_rows(
        [[D0, DyadicGauss.of(0, -2)], [DyadicGauss(D0, Dyadic(-1, -1)), D0]]
    )
    assert cocycle == want
    assert diagonal_structure(2).to_weyl(cocycle) == tr(1, 2, 2)


# -- exact matrices ---------------------------------------------------------


def test_matrix_inverse_errors():
    with pytest.raises(NotAUnit):
        ExactMatrix.from_rows([[1, 1], [1, 1]]).inverse()
    with pytest.raises(NotAUnit):
        ExactMatrix.from_rows([[3]]).inverse()
    with pytest.raises(ValueError, match="^inverse of a non-square matrix$"):
        ExactMatrix.from_rows([[1, 0]]).inverse()
    with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
        ExactMatrix.from_rows([[1, 0]]).det()


def test_one_entry_blocks_are_read_off_their_entry(monkeypatch):
    # 1x1 components take their determinant and inverse from their entry,
    # with no elimination; the 2x2 component still runs one
    calls = []
    eliminate = korbits.dyadic._gauss_jordan
    monkeypatch.setattr(
        korbits.dyadic, "_gauss_jordan", lambda rows: calls.append(rows) or eliminate(rows)
    )
    m = ExactMatrix.from_rows(
        [[GI, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0], [0, 0, 0, DyadicGauss.of(1, 1)]]
    )
    assert m.det() == naive_det(m)
    assert m.inverse() == naive_inverse(m)
    assert len(calls) == 2
    calls.clear()
    d = ExactMatrix.diagonal([Dyadic(1, -3), GI, DyadicGauss.of(-1, 1)])
    assert d.det() == naive_det(d)
    assert d.inverse() == naive_inverse(d)
    assert calls == []
    for entries, det in (([1, 0, 1], "0"), ([1, 3], "3")):
        with pytest.raises(NotAUnit, match=f"^determinant {det} is not a unit$"):
            ExactMatrix.diagonal(entries).inverse()
    assert calls == []


def test_permutation_matrix_convention():
    # column j carries the sign in row w(j)
    assert ExactMatrix.from_rows(perm_matrix(tr(1, 2, 3))) == ExactMatrix.from_rows(
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    )
    m = ExactMatrix.from_rows(perm_matrix(flip((1,), 2)))
    assert m == ExactMatrix.from_rows([[-1, 0], [0, 1]])


def test_permutation_matrix_multiplicative():
    w = SignedPerm((2, -3, 1))
    v = SignedPerm((-1, 3, 2))
    assert ExactMatrix.from_rows(perm_matrix(w * v)) == ExactMatrix.from_rows(
        perm_matrix(w)
    ) * ExactMatrix.from_rows(perm_matrix(v))


_elementary = st.one_of(
    st.builds(
        lambda i, j, v: ("shear", i, j, v),
        st.integers(0, 2),
        st.integers(0, 2),
        gausses,
    ),
    st.builds(lambda us: ("diag", us), st.tuples(*[st.integers(-3, 3)] * 3)),
    st.builds(lambda p: ("perm", p), st.permutations([1, 2, 3])),
)


def _elementary_matrix(kind) -> ExactMatrix:
    if kind[0] == "shear":
        _, i, j, v = kind
        if i == j:
            return ExactMatrix.diagonal([1] * 3)
        rows = [[G1 if r == c else DyadicGauss.of(0) for c in range(3)] for r in range(3)]
        rows[i][j] = v
        return ExactMatrix.from_rows(rows)
    if kind[0] == "diag":
        return ExactMatrix.diagonal([DyadicGauss.of(Dyadic(1, e)) for e in kind[1]])
    return ExactMatrix.from_rows(perm_matrix(SignedPerm(tuple(kind[1]))))


@given(st.lists(_elementary, min_size=1, max_size=5))
def test_matrix_inverse_roundtrip_on_units(kinds):
    m = ExactMatrix.diagonal([1] * 3)
    for kind in kinds:
        m = m * _elementary_matrix(kind)
    assert m.det().is_unit()
    assert m * m.inverse() == ExactMatrix.diagonal([1] * 3)
    assert m.inverse() * m == ExactMatrix.diagonal([1] * 3)
    assert m.det() * m.inverse().det() == G1


@given(st.lists(_elementary, min_size=1, max_size=3), st.lists(_elementary, min_size=1, max_size=3))
def test_matrix_det_multiplicative(ka, kb):
    a = ExactMatrix.diagonal([1] * 3)
    for kind in ka:
        a = a * _elementary_matrix(kind)
    b = ExactMatrix.diagonal([1] * 3)
    for kind in kb:
        b = b * _elementary_matrix(kind)
    assert (a * b).det() == a.det() * b.det()


# -- det and inverse against the complex-rational oracle --------------------

_small = st.builds(Dyadic, st.integers(-3, 3), st.integers(-4, 1))
_entries = st.one_of(gausses, st.builds(DyadicGauss, _small, _small))


def _square(n: int):
    row = st.lists(_entries, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


_squares = st.integers(1, 6).flatmap(_square).map(ExactMatrix.from_rows)


@st.composite
def _unit_det_matrices(draw, n=None, triangular=False):
    """L * D * P * U with unitriangular L and U, a diagonal of units and a
    permutation: the determinant is a unit.  Size n, or 1 to 6; just D * U
    when ``triangular``."""
    n = draw(st.integers(1, 6)) if n is None else n
    rows = draw(_square(n))
    lower = [[rows[i][j] if i > j else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rows[i][j] if i < j else int(i == j) for j in range(n)] for i in range(n)]
    units = [G1, GI, DyadicGauss.of(1, 1), DyadicGauss.of(Dyadic(1, -2))]
    diag = draw(st.lists(st.sampled_from(units), min_size=n, max_size=n))
    images = draw(st.permutations(range(1, n + 1)))
    perm = ExactMatrix.from_rows(perm_matrix(SignedPerm(tuple(images))))
    if triangular:
        return ExactMatrix.diagonal(diag) * ExactMatrix.from_rows(upper)
    return (
        ExactMatrix.from_rows(lower)
        * ExactMatrix.diagonal(diag)
        * perm
        * ExactMatrix.from_rows(upper)
    )


def _agree_with_oracle(m: ExactMatrix) -> None:
    assert m.det() == naive_det(m)
    try:
        want = naive_inverse(m)
    except NotAUnit:
        with pytest.raises(NotAUnit):
            m.inverse()
    else:
        assert m.inverse() == want


@settings(deadline=None)
@given(_squares)
def test_det_and_inverse_match_oracle(m):
    _agree_with_oracle(m)


@settings(deadline=None)
@given(_unit_det_matrices())
def test_unit_det_inverse_matches_oracle(m):
    assert m.det().is_unit()
    _agree_with_oracle(m)
    assert m * m.inverse() == ExactMatrix.diagonal([1] * m.nrows)


@st.composite
def _block_structured(draw):
    """Disjoint blocks of size 1 to 3 and one dense block of size up to 6,
    each of unit determinant (the small ones triangular or not) but with
    the dense block's first row scaled by a drawn factor, at indices
    shuffled alike for rows and columns."""
    sizes = draw(st.lists(st.integers(1, 3), max_size=4))
    small = [draw(_unit_det_matrices(k, draw(st.booleans()))) for k in sizes]
    blocks = [[list(r) for r in b.entries] for b in small + [draw(_unit_det_matrices())]]
    factor = draw(st.sampled_from([G1, GI, DyadicGauss.of(3), DyadicGauss.of(1, 2)]))
    blocks[-1][0] = [factor * v for v in blocks[-1][0]]
    n = sum(map(len, blocks))
    order = draw(st.permutations(range(n)))
    rows = [[G0] * n for _ in range(n)]
    for block in blocks:
        idx, order = order[: len(block)], order[len(block) :]
        for r, brow in zip(idx, block):
            for c, v in zip(idx, brow):
                rows[r][c] = v
    return ExactMatrix.from_rows(rows), factor.is_unit()


@settings(deadline=None)
@given(_block_structured())
def test_block_structured_matrices_match_oracle(case):
    """Elimination one connected component at a time agrees with the
    oracle's dense elimination, and a non-unit block makes the whole
    matrix a non-unit."""
    m, unit = case
    assert ExactMatrix.from_rows(m.entries) == m
    assert m.det() == naive_det(m)
    assert m.det().is_unit() == unit
    if unit:
        assert m.inverse() == naive_inverse(m)
    else:
        with pytest.raises(NotAUnit):
            m.inverse()


@settings(deadline=None)
@given(_squares, st.data())
def test_singular_matrices(m, data):
    """Last row replaced by a combination of the others, summed in the
    oracle's Fraction arithmetic."""
    rows = [list(r) for r in m.entries]
    k = len(rows) - 1
    coeffs = data.draw(st.lists(_entries, min_size=k, max_size=k))
    last = []
    for j in range(len(rows)):
        re = im = Fraction(0)
        for c, row in zip(coeffs, rows):
            a, b = _q(c * row[j])
            re, im = re + a, im + b
        last.append(_from_q((re, im)))
    singular = ExactMatrix.from_rows(rows[:-1] + [last])
    assert singular.det() == naive_det(singular) == G0
    with pytest.raises(NotAUnit):
        singular.inverse()


_non_units = st.sampled_from(
    [DyadicGauss.of(3), DyadicGauss.of(5), DyadicGauss.of(1, 2), DyadicGauss.of(3, 1)]
)


@settings(deadline=None)
@given(_unit_det_matrices(), _non_units)
def test_non_unit_determinant(m, factor):
    """Scaling one row of a unit-determinant matrix by a non-unit."""
    rows = [list(r) for r in m.entries]
    rows[0] = [factor * v for v in rows[0]]
    scaled = ExactMatrix.from_rows(rows)
    assert scaled.det() == naive_det(scaled) == factor * m.det()
    assert not scaled.det().is_unit()
    with pytest.raises(NotAUnit):
        scaled.inverse()
    with pytest.raises(NotAUnit):
        naive_inverse(scaled)


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_non_square_det_raises(nr, nc, data):
    if nr == nc:
        nc += 1
    row = st.lists(_entries, min_size=nc, max_size=nc)
    m = ExactMatrix.from_rows(data.draw(st.lists(row, min_size=nr, max_size=nr)))
    with pytest.raises(ValueError):
        m.det()
    with pytest.raises(ValueError):
        naive_det(m)


@st.composite
def _signed_perms(draw, n):
    images = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPerm(s * v for s, v in zip(signs, images))


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_signed_perms(n), _square(n))))
def test_permuted_is_conjugation_by_the_signed_permutation_matrix(case):
    w, rows = case
    m = ExactMatrix.from_rows(rows)
    p = _perm_matrix(w)
    assert p == ExactMatrix.from_rows(perm_matrix(w))
    assert _apply_map((w, False), m) == p * m * naive_inverse(p)


_sparse = st.one_of(st.just(G0), _entries)


@settings(deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(_sparse, min_size=n, max_size=n), min_size=n, max_size=n),
            _signed_perms(n),
            _signed_perms(n),
        )
    )
)
def test_matrix_equality_ignores_the_order_entries_arrive_in(case):
    """Products accumulate each row's entries in the order of the factors'
    patterns, so P^T (P M) and (M Q) Q^T build M's rows in other orders."""
    rows, w, v = case
    m = ExactMatrix.from_rows(rows)
    p, q = _perm_matrix(w), _perm_matrix(v)
    assert p.transpose() * (p * m) == m
    assert (m * q) * q.transpose() == m
    shuffled = [dict(reversed(row.items())) for row in m.rows]
    assert ExactMatrix(m.ncols, shuffled, m.exp) == m


@pytest.mark.parametrize("u", [UCIRC, UHYP], ids=["UCIRC", "UHYP"])
def test_diagonalizer_blocks_come_with_their_inverses(u):
    assert u * u.inverse() == ExactMatrix.diagonal([1, 1])
    assert u.inverse() == naive_inverse(u)


def test_diagonalizer_inverse_is_placed_from_its_blocks():
    struct = TorusStructure((1, 2, 3, -1, 0, -3), (((1, 4), UCIRC), ((3, 6), UHYP)))
    u, u_inv = struct._diagonalizer
    assert u * u_inv == ExactMatrix.diagonal([1] * 6)
    assert u_inv == naive_inverse(u)


def test_conj_transpose():
    m = ExactMatrix.from_rows([[DyadicGauss.of(1, 2), G1], [GI, D0]])
    assert m.conjugate().transpose() == ExactMatrix.from_rows(
        [[DyadicGauss.of(1, -2), -GI], [G1, D0]]
    )


# -- torus structures -------------------------------------------------------


def test_diagonal_structure_to_weyl():
    struct = diagonal_structure(3)
    w = SignedPerm((2, 3, 1))
    assert struct.to_weyl(ExactMatrix.from_rows(perm_matrix(w))) == w
    with pytest.raises(NotMonomial):
        struct.to_weyl(ExactMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_diagonal_structure_forms_no_product_with_the_identity(monkeypatch):
    # with no 2x2 block the diagonalizer is the identity: embed and to_weyl
    # form no product with it, and still refuse non-monomial matrices
    struct = diagonal_structure(3)
    m = ExactMatrix.from_rows(perm_matrix(SignedPerm((-3, 1, 2))))  # a sign is no flip
    point = ExactMatrix.diagonal(struct.sample_point())
    products = []
    multiply = ExactMatrix.__mul__
    monkeypatch.setattr(
        ExactMatrix, "__mul__", lambda a, b: products.append(b) or multiply(a, b)
    )
    assert struct.to_weyl(m) == SignedPerm((3, 1, 2))
    assert struct.embed(struct.sample_point()) == point
    assert products == []
    with pytest.raises(NotMonomial, match="^row 1 has 2 nonzero entries$"):
        struct.to_weyl(ExactMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_diagonal_structure_rank_and_sample_point():
    struct = diagonal_structure(3)
    assert struct.rank == 3
    assert len(set(struct.sample_point())) == 3


@pytest.mark.parametrize("u", [UCIRC, UHYP], ids=["UCIRC", "UHYP"])
def test_block_structure_rank_and_size(u):
    struct = TorusStructure((1, -1), (((1, 2), u),))
    assert (struct.rank, struct.size) == (1, 2)
    assert struct.embed([DyadicGauss.of(2)]) == u * ExactMatrix.diagonal(
        [2, Dyadic(1, -1)]
    ) * naive_inverse(u)


@pytest.mark.parametrize(
    "labels,places",
    [
        ((1, -1, 2), ((1, 2), (2, 3))),
        ((1, -1, 2, -2), ((1, 2), (2, 1))),
        ((1, -1), ((1, 1),)),
        ((1, -1), ((2, 3),)),
        ((1, -1), ((0, 1),)),
    ],
    ids=["overlap", "same-pair-twice", "one-slot-twice", "past-size", "below-one"],
)
def test_overlapping_or_out_of_range_blocks_are_refused(labels, places):
    with pytest.raises(ValueError, match=r"^blocks overlap or leave 1\.\.\d+: "):
        TorusStructure(labels, tuple((idx, UCIRC) for idx in places))


#: Each block's diagonalizer, written out.
_DIAGONALIZERS = [
    ExactMatrix.from_rows([[1, 1], [GI, -GI]]),
    ExactMatrix.from_rows([[1, 1], [1, -1]]),
]
#: Units of the Gaussian dyadics, for torus coordinates.
_UNITS = [
    G1, -G1, GI, DyadicGauss.of(1, 1), DyadicGauss.of(2), DyadicGauss.of(Dyadic(1, -2))
]


@st.composite
def _structures(draw):
    """Labels and blocks at shuffled slots: each coordinate sits on one
    slot, as itself or as its inverse, or on two slots as itself and its
    inverse, under a drawn diagonalizer block or none; the remaining slots
    are constant."""
    # how many slots each coordinate holds, 0 standing for a constant slot
    spans = draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))
    slots = draw(st.permutations(range(sum(max(k, 1) for k in spans))))
    labels, blocks, coord = [0] * len(slots), [], 0
    for k in spans:
        if k == 0:
            slots.pop()
            continue
        coord += 1
        if k == 1:
            labels[slots.pop()] = draw(st.sampled_from((coord, -coord)))
            continue
        a, b = slots.pop(), slots.pop()
        labels[a], labels[b] = coord, -coord
        u = draw(st.sampled_from(_DIAGONALIZERS + [None]))
        if u is not None:
            blocks.append(((a + 1, b + 1), u))
    return TorusStructure(tuple(labels), tuple(blocks))


def _points(struct):
    return st.lists(st.sampled_from(_UNITS), min_size=struct.rank, max_size=struct.rank)


def _expected_diagonal(struct, values):
    return ExactMatrix.diagonal(
        [
            G1 if k == 0 else values[k - 1] if k > 0 else values[-k - 1].inverse()
            for k in struct.labels
        ]
    )


@settings(deadline=None)
@given(_structures(), st.data())
def test_embed_is_a_homomorphism(struct, data):
    """embed(v) is U diag U^-1 for the diagonalizers placed on the blocks,
    it multiplies coordinatewise, and the all-ones point is the identity."""
    v, w = data.draw(_points(struct)), data.draw(_points(struct))
    u = placed(struct.size, struct.blocks)
    assert struct.embed(v) == u * _expected_diagonal(struct, v) * naive_inverse(u)
    vw = [a * b for a, b in zip(v, w)]
    assert struct.embed(v) * struct.embed(w) == struct.embed(vw)
    assert struct.embed([G1] * struct.rank) == ExactMatrix.diagonal([1] * struct.size)


@st.composite
def _normalizers(draw):
    """A structure, a signed permutation w of its coordinates that maps
    one-slot coordinates to one-slot coordinates and two-slot ones to
    two-slot ones, and U P U^-1 for a monomial P with unit entries that
    moves each slot's eigenvalue to the slot w gives it."""
    struct = draw(_structures())
    slot = {k: s for s, k in enumerate(struct.labels) if k}
    coords = range(1, struct.rank + 1)
    pairs = [k for k in coords if k in slot and -k in slot]
    singles = [k for k in coords if k not in pairs]
    images = [0] * struct.rank
    for group in (singles, pairs):
        for k, j in zip(group, draw(st.permutations(group))):
            images[k - 1] = j
    for k in singles:  # the sign that lands k's slot on j's slot
        j = images[k - 1]
        images[k - 1] = j if (k in slot) == (j in slot) else -j
    for k in pairs:
        images[k - 1] *= draw(st.sampled_from((1, -1)))
    trivial = [s for s, k in enumerate(struct.labels) if k == 0]
    target = dict(zip(trivial, draw(st.permutations(trivial))))
    for s, k in enumerate(struct.labels):
        if k:
            target[s] = slot[images[abs(k) - 1] * (1 if k > 0 else -1)]
    rows = [[0] * struct.size for _ in range(struct.size)]
    for s, t in target.items():
        rows[t][s] = draw(st.sampled_from(_UNITS))
    u = placed(struct.size, struct.blocks)
    m = u * ExactMatrix.from_rows(rows) * naive_inverse(u)
    return struct, SignedPerm(images), m


@settings(deadline=None)
@given(_normalizers(), st.data())
def test_to_weyl_reads_back_the_permutation_of_the_coordinates(case, data):
    """to_weyl recovers w from a matrix that permutes the torus by w, and
    conjugating embed(v) by that matrix gives the point that w moves v to."""
    struct, w, m = case
    assert struct.to_weyl(m) == w
    v = data.draw(_points(struct))
    moved = [G1] * struct.rank
    for k, img in enumerate(w):
        moved[abs(img) - 1] = v[k] if img > 0 else v[k].inverse()
    assert m * struct.embed(v) * naive_inverse(m) == struct.embed(moved)


def test_mixed_structure_rank_and_size():
    struct = TorusStructure((1, 2, -2, 0), (((2, 3), UHYP),))
    assert (struct.rank, struct.size) == (2, 4)
    assert struct._diagonalizer[0] == placed(4, [((2, 3), UHYP)])


def test_sample_point_avoids_inverse_collisions():
    struct = diagonal_structure(4)
    vals = struct.sample_point()
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            if i != j:
                assert a != b
                assert a * b != G1
