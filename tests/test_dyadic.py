from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from korbits.catalog import GBL
from korbits.dyadic import (
    D0,
    D1,
    G0,
    G1,
    GI,
    DivisionNotDyadic,
    Dyadic,
    DyadicGauss,
    ExactMatrix,
    NotAUnit,
    NotMonomial,
    TorusStructure,
    diagonal_structure,
    permutation_matrix,
)
from korbits.weyl import SignedPerm
from oracle import naive_det, naive_inverse
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


def test_dyadic_division():
    assert Dyadic(1) / Dyadic(1, 3) == Dyadic(1, -3)
    assert Dyadic(6) / Dyadic(3) == Dyadic(2)
    with pytest.raises(DivisionNotDyadic):
        Dyadic(1) / Dyadic(3)
    with pytest.raises(ZeroDivisionError):
        Dyadic(1) / D0


def test_dyadic_fraction_roundtrip():
    q = Fraction(-5, 8)
    assert Dyadic.from_fraction(q).to_fraction() == q
    with pytest.raises(DivisionNotDyadic):
        Dyadic.from_fraction(Fraction(1, 3))


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


def test_gauss_inverse_and_division():
    z = DyadicGauss.of(1, 1)
    assert z.inverse() == DyadicGauss(Dyadic(1, -1), Dyadic(-1, -1))
    assert z * z.inverse() == G1
    assert z / z == G1
    with pytest.raises(DivisionNotDyadic):
        G1 / DyadicGauss.of(3)


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
    assert GBL * GBL.inverse() == ExactMatrix.identity(2)


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


def test_permutation_matrix_convention():
    # column j carries the sign in row w(j)
    assert permutation_matrix(tr(1, 2, 3)) == ExactMatrix.from_rows(
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    )
    m = permutation_matrix(flip((1,), 2))
    assert m == ExactMatrix.from_rows([[-1, 0], [0, 1]])


def test_permutation_matrix_multiplicative():
    w = SignedPerm((2, -3, 1))
    v = SignedPerm((-1, 3, 2))
    assert permutation_matrix(w * v) == permutation_matrix(w) * permutation_matrix(v)


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
            return ExactMatrix.identity(3)
        rows = [[G1 if r == c else DyadicGauss.of(0) for c in range(3)] for r in range(3)]
        rows[i][j] = v
        return ExactMatrix.from_rows(rows)
    if kind[0] == "diag":
        return ExactMatrix.diagonal([DyadicGauss.of(Dyadic(1, e)) for e in kind[1]])
    return permutation_matrix(SignedPerm(tuple(kind[1])))


@given(st.lists(_elementary, min_size=1, max_size=5))
def test_matrix_inverse_roundtrip_on_units(kinds):
    m = ExactMatrix.identity(3)
    for kind in kinds:
        m = m * _elementary_matrix(kind)
    assert m.det().is_unit()
    assert m * m.inverse() == ExactMatrix.identity(3)
    assert m.inverse() * m == ExactMatrix.identity(3)
    assert m.det() * m.inverse().det() == G1


@given(st.lists(_elementary, min_size=1, max_size=3), st.lists(_elementary, min_size=1, max_size=3))
def test_matrix_det_multiplicative(ka, kb):
    a = ExactMatrix.identity(3)
    for kind in ka:
        a = a * _elementary_matrix(kind)
    b = ExactMatrix.identity(3)
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
def _unit_det_matrices(draw):
    """L * D * P * U with unitriangular L and U, a diagonal of units and a
    permutation: the determinant is a unit."""
    n = draw(st.integers(1, 6))
    rows = draw(_square(n))
    lower = [[rows[i][j] if i > j else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rows[i][j] if i < j else int(i == j) for j in range(n)] for i in range(n)]
    units = [G1, GI, DyadicGauss.of(1, 1), DyadicGauss.of(Dyadic(1, -2))]
    diag = draw(st.lists(st.sampled_from(units), min_size=n, max_size=n))
    images = draw(st.permutations(range(1, n + 1)))
    perm = permutation_matrix(SignedPerm(tuple(images)))
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
    assert m * m.inverse() == ExactMatrix.identity(m.nrows)


@settings(deadline=None)
@given(_squares, st.data())
def test_singular_matrices(m, data):
    """Last row replaced by a combination of the others."""
    rows = [list(r) for r in m.entries]
    k = len(rows) - 1
    coeffs = data.draw(st.lists(_entries, min_size=k, max_size=k))
    last = [G0] * len(rows)
    for c, row in zip(coeffs, rows):
        last = [x + c * y for x, y in zip(last, row)]
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


def test_conj_transpose():
    m = ExactMatrix.from_rows([[DyadicGauss.of(1, 2), G1], [GI, D0]])
    assert m.conj_transpose() == ExactMatrix.from_rows(
        [[DyadicGauss.of(1, -2), -GI], [G1, D0]]
    )


# -- torus structures -------------------------------------------------------


def test_diagonal_structure_to_weyl():
    struct = diagonal_structure(3)
    w = SignedPerm((2, 3, 1))
    assert struct.to_weyl(permutation_matrix(w)) == w
    with pytest.raises(NotMonomial):
        struct.to_weyl(ExactMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_diagonal_structure_embed_extract():
    struct = diagonal_structure(3)
    vals = struct.sample_point()
    assert len(set(vals)) == 3
    assert struct.extract(struct.embed(vals)) == vals


@pytest.mark.parametrize("style", ["hyperbolic", "circular"])
def test_pair1_embed_extract(style):
    struct = TorusStructure(2, (("pair1", 1, 2, style),))
    assert struct.rank == 1
    z = DyadicGauss.of(1, 1)
    m = struct.embed((z,))
    assert struct.extract(m) == (z,)
    labels = struct.slot_labels()
    assert labels[0] == (1, 1) and labels[1] == (1, -1)


def test_pair2_embed_extract():
    struct = TorusStructure(2, (("pair2", 1, 2, "circular"),))
    assert struct.rank == 2
    vals = struct.sample_point()
    assert struct.extract(struct.embed(vals)) == vals


def test_mixed_structure_slot_labels():
    struct = TorusStructure(
        4, (("coord", 1), ("pair1", 2, 3, "hyperbolic"), ("trivial", 4))
    )
    assert struct.rank == 2
    assert struct.slot_labels() == ((1, 1), (2, 1), (2, -1), None)


def test_sample_point_avoids_inverse_collisions():
    struct = diagonal_structure(4)
    vals = struct.sample_point()
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            if i != j:
                assert a != b
                assert a * b != G1
