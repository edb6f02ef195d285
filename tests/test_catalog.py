import math

import pytest

import korbits.catalog
import korbits.dyadic as dyadic
import korbits.twisted
from korbits.catalog import (
    FAMILIES,
    InvalidParams,
    MissingWkData,
    TorusIndexOutOfRange,
    a_max,
    build,
    GBL,
    coset_table,
    galois_matrix,
    orbit_parameters,
    springer,
    theta_matrix,
    verify_matrix_claims,
)
from korbits.dyadic import UCIRC, UHYP, DyadicGauss, ExactMatrix, G1, GI, placed
from korbits.twisted import is_twisted_involution, twisted_involutions
from korbits.weyl import canonical_key, enumerate_subgroup
from oracle import (
    all_elements,
    naive_cosets,
    naive_galois_matrix,
    naive_inverse,
    naive_theta_matrix,
    perm_matrix,
)
from support import cached_build, flip, perm, rebuilt, tr

SMALL = [
    ("GL", (3,)),
    ("SL2n", (2,)),
    ("Ustar", (2,)),
    ("SOodd1", (2,)),
    ("SOeven1", (2,)),
    ("Upq", (2, 1)),
    ("Upq", (2, 2)),
    ("Restriction", (2,)),
]


def test_family_table_is_exhaustive():
    assert set(FAMILIES) == {
        "GL",
        "SL2n",
        "Ustar",
        "SOodd1",
        "SOeven1",
        "Upq",
        "Restriction",
    }


@pytest.mark.parametrize(
    "family,params",
    [
        ("GL", (0,)),
        ("SL2n", (0,)),
        ("Ustar", (-1,)),
        ("SOodd1", (0,)),
        ("SOeven1", (0,)),
        ("Upq", (1, 2)),
        ("Upq", (2, 0)),
        ("Restriction", (0,)),
    ],
)
def test_invalid_params(family, params):
    with pytest.raises(InvalidParams):
        cached_build(family, *params)


def test_unknown_family():
    with pytest.raises(InvalidParams):
        cached_build("Sp2n", 2)


def test_names():
    assert cached_build("GL", 3).name == "GL(3)"
    assert cached_build("SL2n", 2).name == "SL(4)/Sp"
    assert cached_build("Ustar", 2).name == "U*(4)"
    assert cached_build("SOodd1", 4).name == "SO(9,1)"
    assert cached_build("SOeven1", 2).name == "SO(4,1)"
    assert cached_build("Upq", 3, 2).name == "U(3,2)"
    assert cached_build("Restriction", 2).name == "Res(2)"


@pytest.mark.parametrize("family,params", SMALL)
def test_descriptor_indexing(family, params):
    spec = cached_build(family, *params)
    for i, desc in enumerate(spec.tori):
        assert spec.descriptor(i) is desc
        assert desc.index == i
    with pytest.raises(TorusIndexOutOfRange):
        spec.descriptor(len(spec.tori))
    with pytest.raises(TorusIndexOutOfRange):
        spec.descriptor(-1)


@pytest.mark.parametrize("family,params", SMALL)
def test_context_base_is_twisted(family, params):
    spec = cached_build(family, *params)
    ctx = spec.context
    assert is_twisted_involution(ctx, a_max(spec))
    assert (ctx.theta_raw(ctx.base) * ctx.base).is_identity()


A_MAX = [
    ("GL", (3,), tr(1, 3, 3)),
    ("SL2n", (1,), tr(1, 2, 2)),
    ("SL2n", (2,), perm(4, 3, 2, 1)),
    ("Ustar", (1,), perm(1, 2)),
    ("Ustar", (2,), perm(3, 4, 1, 2)),
    ("SOodd1", (1,), flip((1, 2), 2)),
    ("SOodd1", (2,), flip((1, 3), 3)),
    ("SOeven1", (1,), flip((1,), 1)),
    ("SOeven1", (2,), flip((1,), 2)),
    ("Upq", (2, 1), tr(1, 3, 3)),
    ("Upq", (2, 2), perm(4, 3, 2, 1)),
    ("Restriction", (2,), perm(2, 1, 4, 3)),
]


@pytest.mark.parametrize("family,params,want", A_MAX)
def test_a_max_frozen(family, params, want):
    assert a_max(cached_build(family, *params)) == want


CLAIM_COUNTS = [
    ("GL", (1,), 6),
    ("GL", (2,), 10),
    ("GL", (3,), 10),
    ("GL", (4,), 14),
    ("SL2n", (1,), 12),
    ("SL2n", (2,), 16),
    ("SL2n", (3,), 20),
    ("Ustar", (2,), 2),
    ("Ustar", (3,), 2),
    ("SOodd1", (2,), 2),
    ("SOodd1", (3,), 2),
    ("SOeven1", (2,), 8),
    ("SOeven1", (3,), 8),
    ("Upq", (1, 1), 10),
    ("Upq", (2, 1), 10),
    ("Upq", (2, 2), 14),
    ("Upq", (3, 2), 14),
    ("Restriction", (2,), 2),
    ("Restriction", (3,), 2),
]


@pytest.mark.parametrize("family,params,count", CLAIM_COUNTS)
def test_matrix_claims_pass(family, params, count):
    claims = verify_matrix_claims(cached_build(family, *params))
    assert len(claims) == count
    failed = [c for c in claims if not c.ok]
    assert failed == []
    assert len({c.name for c in claims}) == count


@pytest.mark.parametrize(
    "family,params",
    [
        ("GL", (3,)),
        ("Ustar", (2,)),
        ("SOodd1", (3,)),
        ("SOeven1", (3,)),
        ("Upq", (2, 2)),
        ("Restriction", (3,)),
    ],
)
def test_descriptor_count_matches_classification(family, params):
    spec = cached_build(family, *params)
    assert len(spec.tori) == len(spec.torus_classes())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sl2n_descriptors_exceed_classification(n):
    # one geometric class, n+1 arithmetic twists of it
    spec = cached_build("SL2n", n)
    assert len(spec.torus_classes()) == 1
    assert len(spec.tori) == n + 1


COSET_TABLES = [
    ("SL2n", (1,), [1, 2]),
    ("SL2n", (2,), [1, 6, 6]),
    ("SL2n", (3,), [1, 15, 45, 30]),
    ("SOodd1", (2,), [3]),
    ("SOodd1", (3,), [4]),
    ("SOeven1", (2,), [1, 2]),
    ("SOeven1", (3,), [1, 3]),
    ("Upq", (1, 1), [1, 2]),
    ("Upq", (2, 1), [3, 3]),
    ("Upq", (2, 2), [3, 12, 6]),
    ("Upq", (3, 2), [15, 30, 10]),
    ("Restriction", (2,), [2]),
    ("Restriction", (3,), [6]),
]


@pytest.mark.parametrize("family,params,table", COSET_TABLES)
def test_coset_counts(family, params, table):
    spec = cached_build(family, *params)
    got = [len(coset_table(spec, i).reps) for i in range(len(spec.tori))]
    assert got == table
    assert len(orbit_parameters(spec)) == sum(table)
    order = spec.group.order
    for desc, count in zip(spec.tori, table):
        wk = enumerate_subgroup(desc.wk_generators or [spec.group.identity()])
        assert count * len(wk) == order


@pytest.mark.parametrize("n,total", [(1, 3), (2, 13), (3, 91)])
def test_sl2n_parameter_totals(n, total):
    assert len(orbit_parameters(cached_build("SL2n", n))) == total


# Closed forms check the parameter counts where brute force cannot reach:
# the K-orbits of U(p,q) are Yamamoto's (p,q)-clans, sum over k of
# n!/(k!(p-k)!(q-k)!2^k) for n = p+q, and SO(2n+1,1) has n+1 of them.
UPQ_UP_TO_9 = [(s - q, q) for s in range(2, 10) for q in range(1, s // 2 + 1)]


def _clans(p, q):
    f = math.factorial
    return sum(f(p + q) // (f(k) * f(p - k) * f(q - k) * 2**k) for k in range(q + 1))


@pytest.mark.parametrize("p,q", UPQ_UP_TO_9)
def test_upq_parameter_count_is_the_clan_count(p, q):
    spec = build("Upq", p, q)
    reps = sum(len(coset_table(spec, i).reps) for i in range(len(spec.tori)))
    assert reps == _clans(p, q)


def test_clan_counts_frozen():
    assert _clans(5, 4) == 9891
    assert _clans(4, 4) == 2835


@pytest.mark.parametrize("n", range(1, 8))
def test_soodd1_parameter_count_is_n_plus_one(n):
    assert len(coset_table(build("SOodd1", n), 0).reps) == n + 1


def test_sl2_parameters_frozen():
    spec = cached_build("SL2n", 1)
    e = perm(1, 2)
    s = tr(1, 2, 2)
    rows = [
        (p.torus_index, p.rep, p.coset_size, p.value, p.length)
        for p in orbit_parameters(spec)
    ]
    assert rows == [(0, e, 2, s, 0), (1, e, 1, e, 0), (1, s, 1, e, 1)]


def test_orbit_parameter_values_match_springer():
    for family, params in [("SL2n", 2), ("SOodd1", 3), ("Upq", (2, 2))]:
        args = params if isinstance(params, tuple) else (params,)
        spec = cached_build(family, *args)
        for p in orbit_parameters(spec):
            assert springer(spec, p.torus_index, p.rep) == p.value
            assert is_twisted_involution(spec.context, p.value)
            assert spec.group.length(p.rep) == p.length


def test_each_springer_value_built_and_checked_once(monkeypatch):
    """U(4,3)'s 665 parameters have 232 distinct values: each is checked
    once and shared by every parameter that has it, while ``springer``, the
    traced entry point, still runs once per parameter."""
    calls = {"springer": 0, "is_twisted_involution": 0}
    for module, name in [
        (korbits.catalog, "springer"),
        (korbits.twisted, "is_twisted_involution"),
    ]:
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    params = orbit_parameters(build("Upq", 4, 3))
    assert len(params) == 665
    assert calls == {"springer": 665, "is_twisted_involution": 232}
    shared = {}
    for p in params:
        assert shared.setdefault(p.value, p.value) is p.value
    assert len(shared) == 232


def test_missing_wk_data():
    for family, n in [("GL", 3), ("Ustar", 2)]:
        spec = cached_build(family, n)
        with pytest.raises(MissingWkData):
            orbit_parameters(spec)
        with pytest.raises(MissingWkData):
            coset_table(spec, 0)


def test_sweep_domain_with_wk_data():
    # one representative per coset of W_K, the least of its coset
    spec = cached_build("SOodd1", 2)
    reps = coset_table(spec, 0).reps
    assert len(reps) == 3
    wk = enumerate_subgroup(spec.descriptor(0).wk_generators)
    blocks = naive_cosets(wk, all_elements(spec.group.kind, spec.group.rank))
    least = (min(block, key=canonical_key) for block in blocks)
    assert reps == tuple(sorted(least, key=canonical_key))


def test_upq_little_weyl_group_structure():
    # q - i paired blocks moved diagonally, head and tail symmetric parts
    spec = cached_build("Upq", 2, 2)
    w0 = enumerate_subgroup(spec.descriptor(0).wk_generators)
    assert len(w0) == 8
    assert perm(3, 4, 1, 2) in w0  # both pair swaps at once
    assert tr(1, 3, 4) in w0 and tr(2, 4, 4) in w0
    assert tr(1, 2, 4) not in w0  # one-sided swap breaks the pairing
    w2 = enumerate_subgroup(spec.descriptor(2).wk_generators)
    assert len(w2) == 4


def test_theta_and_galois_matrices_gl():
    spec = cached_build("GL", 2)
    from korbits.dyadic import Dyadic, DyadicGauss

    two = ExactMatrix.diagonal([DyadicGauss.of(2), DyadicGauss.of(1)])
    assert theta_matrix(spec, two) == ExactMatrix.diagonal(
        [DyadicGauss.of(Dyadic(1, -1)), DyadicGauss.of(1)]
    )
    eye_i = ExactMatrix.diagonal([DyadicGauss.of(0, 1), DyadicGauss.of(1)])
    assert galois_matrix(spec, eye_i) == ExactMatrix.diagonal(
        [DyadicGauss.of(0, -1), DyadicGauss.of(1)]
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ustar_galois_matrix_is_quaternionic(n):
    # no CLI query reads U*(2n)'s Galois map: J conj(m) J^-1, an involution
    # commuting with theta, and not the plain conjugation
    spec = cached_build("Ustar", n)
    struct = spec.torus_structure
    point = struct.embed(struct.sample_point())
    g = placed(2 * n, [((2 * j - 1, 2 * j), GBL) for j in range(1, n + 1)])
    for m in (point, g, point * g):
        gm = galois_matrix(spec, m)
        assert galois_matrix(spec, gm) == m
        assert galois_matrix(spec, theta_matrix(spec, m)) == theta_matrix(spec, gm)
        assert gm != m.conjugate()


MATRIX_MAPS = SMALL + [
    ("GL", (5,)),
    ("SL2n", (3,)),
    ("Ustar", (3,)),
    ("SOodd1", (3,)),
    ("SOeven1", (3,)),
    ("Upq", (3, 2)),
    ("Restriction", (3,)),
]


@pytest.mark.parametrize("family,params", MATRIX_MAPS)
def test_matrix_maps_match_the_dense_formulas(family, params):
    """theta and Galois as signed-permutation data agree with the dense
    products of the oracle on the sample point, on every realizer and on
    each realizer times the sample point."""
    spec = build(family, *params)
    struct = spec.torus_structure
    point = struct.embed(struct.sample_point())
    points = [point]
    for desc in spec.tori:
        if desc.realizer is not None:
            points += [desc.matrix, desc.matrix * point]
    for m in points:
        assert theta_matrix(spec, m) == naive_theta_matrix(spec, m)
        assert galois_matrix(spec, m) == naive_galois_matrix(spec, m)


@pytest.mark.parametrize("family,params", SMALL)
def test_realizer_inverse_is_placed_from_its_block(family, params):
    spec = build(family, *params)
    for desc in spec.tori:
        if desc.realizer is None:
            assert desc.matrix is None
        else:
            assert desc.matrix.inverse() == naive_inverse(desc.matrix)


@pytest.mark.parametrize(
    "family,params",
    [("GL", (n,)) for n in (1, 2, 7, 40, 200)]
    + [("Upq", pq) for pq in ((1, 1), (4, 3), (50, 50), (60, 40), (99, 1))]
    + [("SL2n", (n,)) for n in (1, 4, 50)],
)
def test_realizer_determinants_in_closed_form(family, params):
    """Torus i's realizer has det (-2i)^i in GL(n), 2^(q-i) in U(p,q) and 1
    in SL(2n)/Sp, checked on sizes far past the oracle's."""
    spec = build(family, *params)
    for desc in spec.tori:
        i = desc.index
        base, k = {
            "GL": (DyadicGauss.of(0, -2), i),
            "Upq": (DyadicGauss.of(2), params[-1] - i),
            "SL2n": (G1, 0),
        }[family]
        want = G1
        for _ in range(k):
            want = want * base
        assert desc.matrix.det() == want, i


def test_upq_theta_matrix_is_signature_conjugation():
    spec = cached_build("Upq", 2, 1)
    m = ExactMatrix.from_rows(perm_matrix(perm(2, 3, 1)))
    j = ExactMatrix.diagonal([1, 1, -1])
    assert theta_matrix(spec, m) == j * m * j


def test_gl_twisted_set_matches_context():
    spec = cached_build("GL", 3)
    inv = twisted_involutions(spec.context)
    assert inv == {perm(1, 2, 3), perm(2, 3, 1), perm(3, 1, 2), perm(3, 2, 1)}


@pytest.mark.parametrize(
    "family,params", [("GL", (4,)), ("Upq", (3, 2)), ("SL2n", (3,)), ("SOeven1", (4,))]
)
def test_verify_eliminates_at_most_three_rows_at_a_time(family, params, monkeypatch):
    """Every determinant and inverse ``verify`` takes is eliminated one
    connected component at a time, and no component is larger than the
    largest realizer block (3x3), whatever the matrix size."""
    sizes = []
    eliminate = dyadic._gauss_jordan
    monkeypatch.setattr(
        dyadic, "_gauss_jordan", lambda rows: sizes.append(len(rows)) or eliminate(rows)
    )
    claims = verify_matrix_claims(build(family, *params))
    assert all(c.ok for c in claims)
    assert sizes and max(sizes) <= 3


# -- verify on corrupted specs ----------------------------------------------


def _invert_flipped(field):
    def corrupt(spec):
        perm, invert = getattr(spec, field)
        return rebuilt(spec, **{field: (perm, not invert)})

    return corrupt


def _realizer_block(rows):
    def corrupt(spec):
        block = ExactMatrix.from_rows(rows)
        tori = tuple(
            d
            if d.realizer is None
            else rebuilt(d, realizer=(d.realizer[0], block, d.realizer[2]))
            for d in spec.tori
        )
        return rebuilt(spec, tori=tori)

    return corrupt


def _gl3_theta_times_flip(spec):
    return rebuilt(spec, theta_map=(flip((1,), 3), True))


def _styles_swapped(spec):
    struct = spec.torus_structure
    blocks = tuple((idx, UHYP if u == UCIRC else UCIRC) for idx, u in struct.blocks)
    return rebuilt(spec, torus_structure=rebuilt(struct, blocks=blocks))


_HYP = [[1, 1], [1, -1]]
_CIRC = [[1, 1], [GI, -GI]]

#: (family, params, corruption, the names of exactly the claims that fail);
#: the sets were read off ``verify_matrix_claims`` before torus points were
#: compared as matrices, and pin that the comparison keeps every verdict.
CORRUPTED = [
    pytest.param(
        "GL", (3,), _invert_flipped("theta_map"),
        {"theta-matches-lattice-involution", "torus-1-theta-cocycle"},
        id="GL3-theta-invert",
    ),
    pytest.param(
        "GL", (3,), _gl3_theta_times_flip, {"torus-1-theta-cocycle"},
        id="GL3-theta-flip1",
    ),
    pytest.param(
        "GL", (3,), _invert_flipped("galois_map"), {"torus-1-galois-cocycle"},
        id="GL3-galois-invert",
    ),
    pytest.param(
        "GL", (3,), _realizer_block(_HYP),
        {"torus-1-conjugate-shape", "torus-1-galois-cocycle", "torus-1-theta-cocycle"},
        id="GL3-hyperbolic-realizer",
    ),
    pytest.param(
        "SL2n", (2,), _realizer_block(_CIRC),
        {"torus-1-realizer-theta-fixed", "torus-2-realizer-theta-fixed"},
        id="SL4-circular-realizer",
    ),
    pytest.param(
        "Upq", (2, 1), _realizer_block(_CIRC), {"torus-0-conjugate-shape"},
        id="U21-circular-realizer",
    ),
    pytest.param(
        "SOeven1", (2,), _styles_swapped, {"split-torus-conjugate-shape"},
        id="SO41-styles-swapped",
    ),
    pytest.param(
        "SOeven1", (2,), _invert_flipped("theta_map"),
        {
            "split-theta-cocycle-exact",
            "split-theta-cocycle-weyl",
            "theta-matches-lattice-involution",
        },
        id="SO41-theta-invert",
    ),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("family,params,corrupt,failing", CORRUPTED)
def test_verify_fails_exactly_the_corrupted_claims(family, params, corrupt, failing, warm):
    """A corrupted spec fails exactly the listed claims, also when the spec
    it was built from has been verified first (``warm``), so that whatever
    the source computed on its first read is not carried into the copy."""
    spec = build(family, *params)
    if warm:
        assert all(c.ok for c in verify_matrix_claims(spec))
    claims = verify_matrix_claims(corrupt(spec))
    names = [c.name for c in verify_matrix_claims(build(family, *params))]
    assert [c.name for c in claims] == names
    assert {c.name for c in claims if not c.ok} == failing


#: A realizer block of determinant 3, for each family whose verify inverts
#: realizers, with the claims that must fail and their details ("NotAUnit"
#: for a detail that starts "NotAUnit: ").
NON_UNIT = [
    pytest.param(
        "GL", (3,), [[1, 1], [0, 3]],
        {
            "torus-1-realizer-det-unit": "det = 3",
            "torus-1-theta-cocycle": "NotAUnit",
            "torus-1-galois-cocycle": "NotAUnit",
            "torus-1-conjugate-shape": "NotAUnit",
        },
        id="GL3",
    ),
    pytest.param(
        "Upq", (2, 1), [[1, 1], [0, 3]],
        {
            "theta-squares-to-identity-on-torus": "NotAUnit",
            "theta-matches-lattice-involution": "NotAUnit",
            "torus-0-realizer-det-unit": "det = 3 (expect a unit, 2^1)",
            "torus-0-theta-cocycle": "NotAUnit",
            "torus-0-galois-cocycle": "NotAUnit",
            "torus-0-conjugate-shape": "NotAUnit",
        },
        id="U21",
    ),
    pytest.param(
        "SOeven1", (2,), [[1, 0, 0], [0, 1, 0], [0, 0, 3]],
        {
            "split-realizer-det-one": "det = 3",
            "split-realizer-preserves-form": "",
            "split-theta-cocycle-exact": "NotAUnit",
            "split-theta-cocycle-weyl": "NotAUnit",
            "split-galois-cocycle-in-little-weyl": "NotAUnit",
            "split-torus-conjugate-shape": "NotAUnit",
        },
        id="SO41",
    ),
]


@pytest.mark.parametrize("family,params,rows,failing", NON_UNIT)
def test_non_unit_realizer_fails_its_claims(family, params, rows, failing):
    """A realizer that is not a unit fails the claims that invert it, with
    the error as the detail, and verify goes on to the other claims."""
    spec = build(family, *params)
    names = [c.name for c in verify_matrix_claims(spec)]
    claims = verify_matrix_claims(_realizer_block(rows)(spec))
    assert [c.name for c in claims] == names
    got = {
        c.name: "NotAUnit" if c.detail.startswith("NotAUnit: ") else c.detail
        for c in claims
        if not c.ok
    }
    assert got == failing
