"""The family builders' data, pinned against literal constructions.

Each expected value is written out here the long way -- dense lattice rows,
twist classes as products of transpositions, realizers as identity
matrices with blocks placed in them -- so the builders' compact block-pair
descriptions are checked field by field.  The golden output hashes see
only what the CLI prints, not these fields.

The second half checks that realizers are built only when read: only
``verify`` reads them.  Little-Weyl-group generator lists are built on
first read too, and never for a refused instance.
"""

from collections import Counter

import pytest

import korbits.catalog as catalog
import korbits.cli as cli
import korbits.weyl as weyl
from korbits.catalog import GBL, HSPLIT, M3, build, verify_matrix_claims
from korbits.dyadic import UCIRC, ExactMatrix, placed
from korbits.tori import ThetaLattice
from korbits.weyl import SignedPerm, identity
from support import flip, tr


def _product(pairs, rank):
    w = identity(rank)
    for i, j in pairs:
        w = w * tr(i, j, rank)
    return w


def _diag(signs):
    n = len(signs)
    return tuple(tuple(signs[i] if i == j else 0 for j in range(n)) for i in range(n))


def _perm_rows(w, sign=1):
    """Dense rows of a plain permutation w, times sign: row i has the entry
    in column j when w sends j to i."""
    n = len(w)
    return tuple(tuple(sign * int(w[j] == i + 1) for j in range(n)) for i in range(n))


def _expect_gl(n):
    tori = []
    for i in range(n // 2 + 1):
        pairs = [(2 * j - 1, 2 * j) for j in range(1, i + 1)]
        g = placed(n, [(pair, UCIRC) for pair in pairs])
        tori.append((_product(pairs, n), g, None))
    return _diag([-1] * n), tori


def _expect_sl2n(n):
    r = 2 * n

    def t(i, j):
        return tr(i, j, r)

    pairing = _product([(2 * j - 1, 2 * j) for j in range(1, n + 1)], r)
    tori = []
    for i in range(n + 1):
        pairs = [(2 * j - 1, 2 * j) for j in range(1, i + 1)]
        g = placed(r, [(pair, GBL) for pair in pairs])
        if i < n:
            wk = [t(2 * j - 1, 2 * j) for j in range(1, i + 1)]
            wk += [t(2 * j - 1, 2 * j + 1) * t(2 * j, 2 * j + 2) for j in range(1, i)]
            wk += [t(j, j + 1) for j in range(2 * i + 1, r)]
        else:
            wk = [t(2 * j - 1, 2 * j) * t(2 * j + 1, 2 * j + 2) for j in range(1, n)]
            wk += [t(2 * j - 1, 2 * j + 1) * t(2 * j, 2 * j + 2) for j in range(1, n)]
        tori.append((_product(pairs, r), g, tuple(wk)))
    return _perm_rows(pairing, -1), tori


def _expect_ustar(n):
    r = 2 * n
    pairing = _product([(2 * j - 1, 2 * j) for j in range(1, n + 1)], r)
    return _perm_rows(pairing, -1), [(identity(r), None, None)]


def _expect_soodd1(n):
    rank = n + 1
    wk = tuple(tr(i, i + 1, rank) for i in range(1, n)) + (flip((n, rank), rank),)
    return _diag([1] * n + [-1]), [(identity(rank), None, wk)]


def _expect_soeven1(n):
    size = 2 * n + 1
    simple = tuple(tr(i, i + 1, n) for i in range(1, n)) + (flip((n,), n),)
    centralizer = (
        tuple(tr(i, i + 1, n) for i in range(1, n - 1))
        + ((flip((n - 1,), n),) if n >= 2 else ())
        + (flip((n,), n),)
    )
    g = placed(size, [((size - 2, size - 1, size), M3)])
    tori = [(identity(n), None, simple), (flip((n,), n), g, centralizer)]
    return _diag([1] * (n - 1) + [-1]), tori


def _expect_upq(p, q):
    n = p + q
    c0 = _product([(p - q + j, n - q + j) for j in range(1, q + 1)], n)
    tori = []
    for i in range(q + 1):
        pairs = [(p - q + i + j, n - q + i + j) for j in range(1, q - i + 1)]
        g = placed(n, [(pair, HSPLIT) for pair in pairs])
        head = p - q + i
        wk = [tr(j, j + 1, n) for j in range(1, head)]
        wk += [
            tr(head + j, head + j + 1, n) * tr(n - q + i + j, n - q + i + j + 1, n)
            for j in range(1, q - i)
        ]
        wk += [tr(head + j, n - q + i + j, n) for j in range(1, q - i + 1)]
        wk += [tr(j, j + 1, n) for j in range(p + 1, p + i)]
        tori.append((_product(pairs, n), g, tuple(wk)))
    return _perm_rows(c0), tori


def _expect_restriction(r):
    rank = 2 * r
    tau = _product([(j, r + j) for j in range(1, r + 1)], rank)
    wk = tuple(tr(j, j + 1, rank) * tr(r + j, r + j + 1, rank) for j in range(1, r))
    return _perm_rows(tau), [(identity(rank), None, wk)]


CASES = (
    [("GL", (n,), _expect_gl) for n in range(1, 9)]
    + [("SL2n", (n,), _expect_sl2n) for n in range(1, 5)]
    + [("Ustar", (n,), _expect_ustar) for n in range(1, 5)]
    + [("SOodd1", (n,), _expect_soodd1) for n in range(1, 7)]
    + [("SOeven1", (n,), _expect_soeven1) for n in range(1, 7)]
    + [("Upq", (p, q), _expect_upq) for q in range(1, 5) for p in range(q, 9 - q)]
    + [("Restriction", (r,), _expect_restriction) for r in range(1, 6)]
)


@pytest.mark.parametrize("family,params,expect", CASES)
def test_builder_data_matches_literal_construction(family, params, expect):
    spec = build(family, *params)
    rows, tori = expect(*params)
    assert spec.lattice.rows == rows
    assert len(spec.tori) == len(tori)
    for desc, (twist_class, matrix, wk) in zip(spec.tori, tori):
        assert desc.twist_class == twist_class
        assert desc.matrix == matrix
        assert desc.wk_generators == wk


# -- realizers are built on demand ---------------------------------------------

ON_DEMAND = [
    ("GL", ["--n", "6"]),
    ("SL2n", ["--n", "3"]),
    ("Upq", ["--p", "3", "--q", "2"]),
    ("SOeven1", ["--n", "4"]),
]


@pytest.fixture
def placed_calls(monkeypatch):
    """Every call to ``catalog.placed``, as its list of placements."""
    calls = []

    def counting(size, placements):
        placements = list(placements)
        calls.append(placements)
        return placed(size, placements)

    monkeypatch.setattr(catalog, "placed", counting)
    return calls


@pytest.mark.parametrize("family,args", ON_DEMAND)
def test_commands_other_than_verify_build_no_realizer(
    family, args, placed_calls, capsys
):
    build(family, *(int(a) for a in args[1::2]))
    for command in ("twisted", "orbits", "classify-tori"):
        cli.main([command, "--family", family, *args])
    capsys.readouterr()
    assert placed_calls == []


@pytest.mark.parametrize("family,args", ON_DEMAND)
def test_verify_builds_each_realizer_once(family, args, monkeypatch):
    """Counts evaluations of the cached ``TorusDescriptor.matrix``, the one
    place a realizer is placed, over two ``verify`` runs."""
    built = []
    prop = catalog.TorusDescriptor.matrix
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda d: built.append(d) or real(d))
    spec = build(family, *(int(a) for a in args[1::2]))
    verify_matrix_claims(spec)
    verify_matrix_claims(spec)
    # each descriptor with a realizer builds its matrix once, on first read
    assert Counter(d.index for d in built) == Counter(
        d.index for d in spec.tori if d.realizer is not None
    )


def test_gl_513_orbits_refuses_without_building_realizers(placed_calls, capsys):
    code = cli.main(["orbits", "--family", "GL", "--n", "513"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == (
        "error: GL(513) has no little-Weyl-group data for torus 0; use the "
        "twisted-involution interface (the 'twisted' subcommand)\n"
    )
    assert placed_calls == []


def test_sl2n_128_orbits_refuses_without_building_wk_lists(monkeypatch, capsys):
    built = []
    real = catalog._sl2n_wk_generators
    monkeypatch.setattr(
        catalog, "_sl2n_wk_generators", lambda n, i: built.append(i) or real(n, i)
    )
    code = cli.main(["orbits", "--family", "SL2n", "--n", "128"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("error: instance too large to enumerate: |S256| = ")
    assert built == []


def test_upq_1000_24_builds_with_few_products(monkeypatch):
    """The twist of each of the 1023 simple reflections is a root lookup,
    not a product: the whole spec takes a handful of products."""
    products = []
    real = SignedPerm.__mul__
    monkeypatch.setattr(
        SignedPerm, "__mul__", lambda w, v: products.append(1) or real(w, v)
    )
    spec = build("Upq", 1000, 24)
    assert len(spec.context._simple_theta) == 1023
    assert 0 < len(products) <= 8


@pytest.mark.parametrize(
    "family,params",
    [
        ("GL", (1024,)),
        ("SL2n", (512,)),
        ("Ustar", (512,)),
        ("SOodd1", (1000,)),
        ("SOeven1", (1000,)),
        ("Upq", (1000, 24)),
        ("Restriction", (512,)),
    ],
)
def test_builds_near_the_rank_cap_form_no_reflection(monkeypatch, family, params):
    """A simple reflection is its root term and the lattice involution its
    signed permutation on the build path: neither the twist context nor w0's
    check forms a reflection as a permutation, and nothing forms a dense
    matrix."""
    formed = []
    real = weyl._reflection
    monkeypatch.setattr(
        weyl, "_reflection", lambda term, rank: formed.append(term) or real(term, rank)
    )
    dense = []
    real_rows, real_entries = ThetaLattice.rows.func, ExactMatrix.entries.fget
    monkeypatch.setattr(
        ThetaLattice, "rows", property(lambda t: dense.append(t.rank) or real_rows(t))
    )
    monkeypatch.setattr(
        ExactMatrix,
        "entries",
        property(lambda m: dense.append(m.nrows) or real_entries(m)),
    )
    spec = build(family, *params)
    assert spec.context._simple_theta
    assert formed == []
    assert dense == []


def test_wk_generators_are_built_once_on_first_read(monkeypatch):
    built = []
    real = catalog._upq_wk_generators
    monkeypatch.setattr(
        catalog, "_upq_wk_generators", lambda p, q, i: built.append(i) or real(p, q, i)
    )
    spec = build("Upq", 3, 2)
    assert all(d.wk is not None for d in spec.tori)
    assert built == []
    first = spec.tori[1].wk_generators
    assert spec.tori[1].wk_generators is first
    assert built == [1]
