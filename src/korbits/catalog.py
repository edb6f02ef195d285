"""The catalog of classical symmetric pairs and their orbit data.

Each family builder packages, for one classical symmetric pair defined over
the dyadic integers, everything the downstream machinery needs: the Weyl
group with its twist context, the lattice involution of the maximally split
stable torus, one descriptor per known torus class (twist class element,
realizing matrix over the Gaussian dyadics, generators of the little Weyl
group when a closed form is known, and the Galois rule on orbit
parameters), and the reference orbit whose value is the top of the monoid
order.

For GL, SL(2n)/Sp and U(p,q) a torus is its list of disjoint index pairs:
the twist class swaps each pair, and the realizer places one 2x2 block on
each.  A descriptor keeps its realizer as the blocks it places and builds
the sparse matrix when first read (only ``verify`` reads it).  Each
family's theta and Galois maps on matrices are given by signed permutations
the builder already has; conjugating by one multiplies by its matrix, built
from its n images, which keeps a matrix of disjoint blocks a block matrix.

Families:

- ``GL(n)``      split general linear group, orthogonal fixed points;
- ``SL2n(n)``    special linear group of rank 2n, symplectic fixed points;
- ``Ustar(n)``   the quaternionic unitary flavor on rank 2n;
- ``SOodd1(n)``  orthogonal group of signature (2n+1, 1);
- ``SOeven1(n)`` orthogonal group of signature (2n, 1);
- ``Upq(p,q)``   unitary flavor of signature (p, q), p >= q >= 1;
- ``Restriction(r)`` a product pair whose twist swaps the two blocks, the
                 shape produced by restriction of scalars.

Orbit parameters are pairs (torus index, canonical coset representative);
families without closed-form little-Weyl-group data (GL, Ustar) expose
their parameters through the twisted-involution interface instead and
raise ``MissingWkData`` from the coset-based entry points.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from typing import Callable, Iterable, NamedTuple, Sequence

from .dyadic import (
    D0,
    Dyadic,
    DyadicGauss,
    ExactMatrix,
    G1,
    GI,
    TorusStructure,
    UCIRC,
    UHYP,
    diagonal_structure,
    placed,
)
from .tori import ThetaLattice, TorusClass, torus_classification
from .twisted import TwistContext, springer_value
from .weyl import (
    CosetTable,
    SignedPerm,
    SubgroupTooLarge,
    WeylGroup,
    # not called here; perfbench's tests read korbits.catalog.enumerate_subgroup
    enumerate_subgroup,  # noqa: F401
    even_hyperoctahedral_group,
    hyperoctahedral_group,
    identity,
    product_symmetric_group,
    sign_flip,
    symmetric_group,
    transposition,
)

__all__ = [
    "GroupSpec",
    "TorusDescriptor",
    "OrbitParam",
    "ClaimResult",
    "InvalidParams",
    "MissingWkData",
    "TorusIndexOutOfRange",
    "FAMILIES",
    "build",
    "a_max",
    "springer",
    "coset_table",
    "orbit_parameters",
    "theta_matrix",
    "galois_matrix",
    "verify_matrix_claims",
]


class InvalidParams(ValueError):
    """Raised when family parameters are out of range."""


class MissingWkData(LookupError):
    """Raised when a family has no closed-form little Weyl group."""


class TorusIndexOutOfRange(IndexError):
    """Raised for a torus index outside the family's descriptor list."""


class TorusDescriptor:
    """One known class of stable maximal tori inside a family, compared and
    hashed by identity.

    ``wk`` builds the generators of the little Weyl group, None when no
    closed form is known; ``wk_generators`` is their tuple, built on first
    read.  ``realizer`` is the realizing matrix as the blocks it places,
    ``(size, block, places)``: ``block`` at each index tuple of ``places``
    inside the size x size identity; None when no realizer is known.
    ``matrix`` is that matrix, built on first read."""

    def __init__(
        self, index: int, twist_class: SignedPerm,
        wk: Callable[[], tuple[SignedPerm, ...]] | None = None,
        galois_conj: SignedPerm | None = None, galois_left: SignedPerm | None = None,
        galois_right: SignedPerm | None = None,
        realizer: tuple[int, ExactMatrix, tuple[tuple[int, ...], ...]] | None = None,
    ) -> None:
        self.index = index
        self.twist_class = twist_class
        self.wk = wk
        self.galois_conj = galois_conj
        self.galois_left = galois_left
        self.galois_right = galois_right
        self.realizer = realizer

    @cached_property
    def wk_generators(self) -> tuple[SignedPerm, ...] | None:
        return None if self.wk is None else self.wk()

    @cached_property
    def matrix(self) -> ExactMatrix | None:
        if self.realizer is None:
            return None
        size, block, places = self.realizer
        return placed(size, [(idx, block) for idx in places])


class GroupSpec:
    """A symmetric pair with its complete orbit bookkeeping data, compared
    and hashed by identity.

    ``theta_map`` and ``galois_map`` are (P, invert): m -> P f(m) P^-1 for a
    signed permutation P (None for e), with f the inverse transpose if
    ``invert``, else the identity; Galois maps the conjugate (i -> -i) of m."""

    def __init__(
        self, family: str, params: tuple[int, ...], name: str, context: TwistContext,
        lattice: ThetaLattice, tori: tuple[TorusDescriptor, ...],
        reference_orbit: tuple[int, SignedPerm], torus_structure: TorusStructure,
        theta_map: tuple[SignedPerm | None, bool],
        galois_map: tuple[SignedPerm | None, bool],
    ) -> None:
        self.family = family
        self.params = params
        self.name = name
        self.context = context
        self.lattice = lattice
        self.tori = tori
        self.reference_orbit = reference_orbit
        self.torus_structure = torus_structure
        self.theta_map = theta_map
        self.galois_map = galois_map

    def descriptor(self, i: int) -> TorusDescriptor:
        if not 0 <= i < len(self.tori):
            raise TorusIndexOutOfRange(
                f"{self.name} has torus indices 0..{len(self.tori) - 1}, got {i}"
            )
        return self.tori[i]

    @property
    def group(self) -> WeylGroup:
        return self.context.group

    def torus_classes(self) -> tuple[TorusClass, ...]:
        return self._torus_classes

    @cached_property
    def _torus_classes(self) -> tuple[TorusClass, ...]:
        return torus_classification(self.lattice)

    @cached_property
    def _coset_tables(self) -> tuple[CosetTable | None, ...]:
        """Coset table of each torus's little Weyl group (None without data);
        a group past the cap is refused before any generator list is built."""
        group = self.group
        group.check_enumerable()
        return tuple(
            None if d.wk is None else CosetTable(d.wk_generators, group)
            for d in self.tori
        )

    @cached_property
    def _orbit_parameters(self) -> tuple[OrbitParam, ...]:
        """Every orbit parameter with its Springer value, computed once."""
        out, group = [], self.group
        for desc in self.tori:
            table = coset_table(self, desc.index)
            for rep in table.reps:
                out.append(
                    OrbitParam(
                        torus_index=desc.index,
                        rep=rep,
                        coset_size=table.size,
                        value=springer(self, desc.index, rep),
                        length=group.length(rep),
                    )
                )
        return tuple(out)


class OrbitParam(NamedTuple):
    """One orbit parameter: a torus index with a coset representative."""

    torus_index: int
    rep: SignedPerm
    coset_size: int
    value: SignedPerm
    length: int


class ClaimResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


# -- small matrix constructors -------------------------------------------

_H = Dyadic(1, -1)
#: The rank-one split realizer of determinant one: rows (1/2, i; i/2, 1).
GBL = ExactMatrix.from_rows([[_H, GI], [DyadicGauss(D0, _H), 1]])
#: The signature-block realizer for the unitary flavor: rows (1, -1; 1, 1).
HSPLIT = ExactMatrix.from_rows([[1, -1], [1, 1]])
#: The 3x3 realizer mixing the last rotation block with the fixed line.
M3 = ExactMatrix.from_rows([[0, 0, -GI], [1, 0, 0], [0, GI, 0]])


def _swaps(pairs: Iterable[tuple[int, int]], rank: int, sign: int = 1) -> SignedPerm:
    """``sign`` times the product of the disjoint transpositions ``pairs``."""
    out = [sign * k for k in range(1, rank + 1)]
    for a, b in pairs:
        out[a - 1], out[b - 1] = sign * b, sign * a
    return SignedPerm(out)


def _circular_pairs(i: int) -> tuple[tuple[int, int], ...]:
    """The pairs (2j-1, 2j) for j = 1..i."""
    return tuple((2 * j - 1, 2 * j) for j in range(1, i + 1))


def _paired_labels(n: int) -> tuple[int, ...]:
    """Slot labels (1, -1, ..., n, -n), for the pairs (2j-1, 2j), j = 1..n."""
    return tuple(s * j for j in range(1, n + 1) for s in (1, -1))


def _symplectic_j(n: int) -> SignedPerm:
    """The symplectic form of rank 2n, (0 1; -1 0) on each pair (2j-1, 2j)."""
    return SignedPerm(x for j in range(1, n + 1) for x in (-2 * j, 2 * j - 1))


# -- family builders -------------------------------------------------------


def _gl_spec(n: int) -> GroupSpec:
    W = symmetric_group(n)
    ctx = TwistContext(W, sign_flip(range(1, n + 1), n), W.longest_element())
    tori = tuple(
        TorusDescriptor(
            index=i, twist_class=_swaps(pairs, n), realizer=(n, UCIRC, pairs)
        )
        for i, pairs in enumerate(map(_circular_pairs, range(n // 2 + 1)))
    )
    return GroupSpec(
        family="GL",
        params=(n,),
        name=f"GL({n})",
        context=ctx,
        lattice=ThetaLattice(W, ctx.twist),
        tori=tori,
        reference_orbit=(0, identity(n)),
        torus_structure=diagonal_structure(n),
        theta_map=(None, True),
        galois_map=(None, False),
    )


def _sl2n_wk_generators(n: int, i: int) -> tuple[SignedPerm, ...]:
    r = 2 * n
    gens: list[SignedPerm] = []
    if i < n:
        gens += [transposition(2 * j - 1, 2 * j, r) for j in range(1, i + 1)]
        gens += [
            _swaps([(2 * j - 1, 2 * j + 1), (2 * j, 2 * j + 2)], r) for j in range(1, i)
        ]
        gens += [transposition(j, j + 1, r) for j in range(2 * i + 1, r)]
    else:
        gens += [
            _swaps([(2 * j - 1, 2 * j), (2 * j + 1, 2 * j + 2)], r) for j in range(1, n)
        ]
        gens += [
            _swaps([(2 * j - 1, 2 * j + 1), (2 * j, 2 * j + 2)], r) for j in range(1, n)
        ]
    return tuple(gens)


def _sl2n_spec(n: int) -> GroupSpec:
    r = 2 * n
    W = symmetric_group(r)
    ctx = TwistContext(W, sign_flip(range(1, r + 1), r), W.longest_element())
    tori = []
    for i, pairs in enumerate(map(_circular_pairs, range(n + 1))):
        c = _swaps(pairs, r)
        tori.append(
            TorusDescriptor(
                index=i,
                twist_class=c,
                wk=partial(_sl2n_wk_generators, n, i),
                galois_left=c,
                realizer=(r, GBL, pairs),
            )
        )
    return GroupSpec(
        family="SL2n",
        params=(n,),
        name=f"SL({r})/Sp",
        context=ctx,
        lattice=ThetaLattice(W, _swaps(_circular_pairs(n), r, -1)),
        tori=tuple(tori),
        reference_orbit=(0, identity(r)),
        torus_structure=diagonal_structure(r),
        theta_map=(_symplectic_j(n), True),
        galois_map=(None, False),
    )


def _ustar_spec(n: int) -> GroupSpec:
    r = 2 * n
    W = symmetric_group(r)
    pairs = _circular_pairs(n)
    ctx = TwistContext(W, _swaps(pairs, r, -1), _swaps(pairs, r) * W.longest_element())
    tori = (TorusDescriptor(index=0, twist_class=identity(r)),)
    j = _symplectic_j(n)
    return GroupSpec(
        family="Ustar",
        params=(n,),
        name=f"U*({r})",
        context=ctx,
        lattice=ThetaLattice(W, ctx.twist),
        tori=tori,
        reference_orbit=(0, identity(r)),
        torus_structure=diagonal_structure(r),
        theta_map=(j, True),
        galois_map=(j, False),
    )


def _soodd1_spec(n: int) -> GroupSpec:
    rank = n + 1
    W = even_hyperoctahedral_group(rank)
    d = sign_flip([rank], rank)
    ctx = TwistContext(W, d, identity(rank))
    tori = (
        TorusDescriptor(
            index=0,
            twist_class=identity(rank),
            wk=lambda: tuple(transposition(i, i + 1, rank) for i in range(1, n))
            + (sign_flip([n, rank], rank),),
            galois_conj=d,
            galois_right=W.longest_element(),
        ),
    )
    structure = TorusStructure(
        _paired_labels(rank),
        tuple((p, UCIRC) for p in _circular_pairs(rank - 1))
        + (((2 * rank - 1, 2 * rank), UHYP),),
    )
    return GroupSpec(
        family="SOodd1",
        params=(n,),
        name=f"SO({2 * n + 1},1)",
        context=ctx,
        lattice=ThetaLattice(W, d),
        tori=tori,
        reference_orbit=(0, transposition(1, rank, rank)),
        torus_structure=structure,
        theta_map=(sign_flip([2 * rank], 2 * rank), False),
        galois_map=(None, False),
    )


def _soeven1_spec(n: int) -> GroupSpec:
    W = hyperoctahedral_group(n)
    ctx = TwistContext(W, identity(n), identity(n))
    last = sign_flip([n], n)
    size = 2 * n + 1
    tori = (
        TorusDescriptor(
            index=0,
            twist_class=identity(n),
            wk=W.simple_reflections,
        ),
        TorusDescriptor(
            index=1,
            twist_class=last,
            wk=lambda: tuple(transposition(i, i + 1, n) for i in range(1, n - 1))
            + ((sign_flip([n - 1], n),) if n >= 2 else ())
            + (last,),
            galois_left=last,
            realizer=(size, M3, ((size - 2, size - 1, size),)),
        ),
    )
    # Reference structure is the torus of the split class: n-1 rotation
    # blocks, a constant slot, then one split block.
    structure = TorusStructure(
        _paired_labels(n - 1) + (0, n, -n),
        tuple((p, UCIRC) for p in _circular_pairs(n - 1)) + (((size - 1, size), UHYP),),
    )
    ref_rep = transposition(1, n, n) if n > 1 else identity(1)
    return GroupSpec(
        family="SOeven1",
        params=(n,),
        name=f"SO({2 * n},1)",
        context=ctx,
        lattice=ThetaLattice(W, last),
        tori=tori,
        reference_orbit=(1, ref_rep),
        torus_structure=structure,
        theta_map=(sign_flip([size], size), False),
        galois_map=(None, False),
    )


def _upq_wk_generators(p: int, q: int, i: int) -> tuple[SignedPerm, ...]:
    n = p + q
    head = p - q + i
    gens: list[SignedPerm] = []
    gens += [transposition(j, j + 1, n) for j in range(1, head)]
    gens += [
        _swaps([(head + j, head + j + 1), (n - q + i + j, n - q + i + j + 1)], n)
        for j in range(1, q - i)
    ]
    gens += [transposition(head + j, n - q + i + j, n) for j in range(1, q - i + 1)]
    gens += [transposition(j, j + 1, n) for j in range(p + 1, p + i)]
    return tuple(gens)


def _upq_spec(p: int, q: int) -> GroupSpec:
    n = p + q
    W = symmetric_group(n)
    ctx = TwistContext(W, identity(n), identity(n))
    w0 = W.longest_element()
    tori = []
    for i in range(q + 1):
        pairs = tuple((p - q + i + j, n - q + i + j) for j in range(1, q - i + 1))
        tori.append(
            TorusDescriptor(
                index=i,
                twist_class=_swaps(pairs, n),
                wk=partial(_upq_wk_generators, p, q, i),
                galois_right=w0,
                realizer=(n, HSPLIT, pairs),
            )
        )
    w_ref = [0] * n
    for j in range(1, q + 1):
        w_ref[j - 1] = p - q + j
        w_ref[n - j] = n - q + j
    for a in range(1, p - q + 1):
        w_ref[q + a - 1] = a
    signature = sign_flip(range(p + 1, n + 1), n)
    return GroupSpec(
        family="Upq",
        params=(p, q),
        name=f"U({p},{q})",
        context=ctx,
        lattice=ThetaLattice(W, tori[0].twist_class),
        tori=tuple(tori),
        reference_orbit=(0, SignedPerm(w_ref)),
        torus_structure=diagonal_structure(n),
        theta_map=(signature, False),
        galois_map=(signature, True),
    )


def _restriction_spec(r: int) -> GroupSpec:
    W = product_symmetric_group(r)
    rank = 2 * r
    tau = SignedPerm(list(range(r + 1, rank + 1)) + list(range(1, r + 1)))
    ctx = TwistContext(W, tau, identity(rank))
    tori = (
        TorusDescriptor(
            index=0,
            twist_class=identity(rank),
            wk=lambda: tuple(
                _swaps([(j, j + 1), (r + j, r + j + 1)], rank) for j in range(1, r)
            ),
        ),
    )
    ref = SignedPerm(list(range(r, 0, -1)) + list(range(r + 1, rank + 1)))
    return GroupSpec(
        family="Restriction",
        params=(r,),
        name=f"Res({r})",
        context=ctx,
        lattice=ThetaLattice(W, tau),
        tori=tori,
        reference_orbit=(0, ref),
        torus_structure=diagonal_structure(rank),
        theta_map=(tau, False),
        galois_map=(None, False),
    )


FAMILIES = {
    "GL": (_gl_spec, ("n",)),
    "SL2n": (_sl2n_spec, ("n",)),
    "Ustar": (_ustar_spec, ("n",)),
    "SOodd1": (_soodd1_spec, ("n",)),
    "SOeven1": (_soeven1_spec, ("n",)),
    "Upq": (_upq_spec, ("p", "q")),
    "Restriction": (_restriction_spec, ("r",)),
}


def build(family: str, *params: int) -> GroupSpec:
    if family not in FAMILIES:
        raise InvalidParams(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        )
    builder, names = FAMILIES[family]
    if len(params) != len(names):
        raise InvalidParams(f"{family} takes parameters {names}, got {len(params)}")
    if min(params) < 1 or any(a < b for a, b in zip(params, params[1:])):
        raise InvalidParams(f"{family} needs {' >= '.join(names)} >= 1")
    return builder(*params)


# -- orbit parameters -------------------------------------------------------


def a_max(spec: GroupSpec) -> SignedPerm:
    i, w = spec.reference_orbit
    return springer(spec, i, w)


def springer(spec: GroupSpec, i: int, w: SignedPerm) -> SignedPerm:
    return springer_value(spec.context, spec.descriptor(i).twist_class, w)


def coset_table(spec: GroupSpec, i: int) -> CosetTable:
    """The coset table of torus i's little Weyl group, built on first use;
    refused without W_K data before any list is built."""
    if spec.descriptor(i).wk is None:
        raise MissingWkData(
            f"{spec.name} has no little-Weyl-group data for torus {i}; "
            "use the twisted-involution interface"
        )
    return spec._coset_tables[i]


def orbit_parameters(spec: GroupSpec) -> tuple[OrbitParam, ...]:
    return spec._orbit_parameters


# -- matrix-level involutions ----------------------------------------------


def _perm_matrix(w: SignedPerm) -> ExactMatrix:
    """The matrix of w, whose column j holds the sign of w(j) in row |w(j)|:
    row r holds the sign of v = w^-1(r) in column |v|."""
    rows = [{abs(v) - 1: (1 if v > 0 else -1, 0)} for v in w.inverse()]
    return ExactMatrix(len(w), rows)


def _apply_map(data: tuple[SignedPerm | None, bool], m: ExactMatrix) -> ExactMatrix:
    perm, invert = data
    m = m.transpose().inverse() if invert else m
    p = None if perm is None else _perm_matrix(perm)
    return m if p is None else p * m * p.transpose()


def theta_matrix(spec: GroupSpec, m: ExactMatrix) -> ExactMatrix:
    """The group involution, applied to a matrix point."""
    return _apply_map(spec.theta_map, m)


def galois_matrix(spec: GroupSpec, m: ExactMatrix) -> ExactMatrix:
    """The Galois conjugation of the quadratic extension, on matrices."""
    return _apply_map(spec.galois_map, m.conjugate())


# -- claim verification ------------------------------------------------------


def _lattice_transform(
    spec: GroupSpec, values: Sequence[DyadicGauss]
) -> tuple[DyadicGauss, ...]:
    out: list[DyadicGauss] = [G1] * len(values)
    for j, img in enumerate(spec.lattice.theta):
        out[abs(img) - 1] = values[j] if img > 0 else values[j].inverse()
    return tuple(out)


def _run_claim(claims: list[ClaimResult], name: str, body) -> None:
    try:
        ok, detail = body()
    except SubgroupTooLarge:  # a refusal, not a failed identity
        raise
    except Exception as exc:  # report, never crash the sweep
        claims.append(
            ClaimResult(name=name, ok=False, detail=f"{type(exc).__name__}: {exc}")
        )
        return
    claims.append(ClaimResult(name=name, ok=bool(ok), detail=detail))


def verify_matrix_claims(spec: GroupSpec) -> tuple[ClaimResult, ...]:
    """Exact verification of every matrix-level identity the family data
    relies on.  Returns one result per claim; nothing is checked
    approximately.  A claim whose check meets the enumeration cap raises
    ``SubgroupTooLarge`` rather than reporting a failure.  Torus points are
    compared as matrices: ``embed`` is injective on unit coordinates.
    Inverses are taken inside the claims, so a realizer that is not a unit
    fails the claims that invert it."""
    claims: list[ClaimResult] = []
    struct = spec.torus_structure
    sample = struct.sample_point()
    # U(p,q)'s lattice involution is split by the realizer of torus 0.
    split = spec.tori[0].matrix if spec.family == "Upq" else None
    split_inv = None if split is None else cache(split.inverse)

    @cache
    def point():
        m = struct.embed(sample)
        return m if split is None else split * m * split_inv()

    def involution():
        return theta_matrix(spec, theta_matrix(spec, point())) == point(), ""

    _run_claim(claims, "theta-squares-to-identity-on-torus", involution)

    def lattice_match():
        moved = theta_matrix(spec, point())
        if split is not None:
            moved = split_inv() * moved * split
        return moved == struct.embed(_lattice_transform(spec, sample)), ""

    _run_claim(claims, "theta-matches-lattice-involution", lattice_match)

    if spec.family == "SL2n":
        _verify_block_realizer(claims)
    if spec.family in ("GL", "SL2n", "Upq"):
        _verify_tori(spec, claims)
    elif spec.family == "SOeven1":
        _verify_soeven1(spec, claims)
    return tuple(claims)


def _verify_block_realizer(claims: list[ClaimResult]) -> None:
    def gbl_det():
        d = GBL.det()
        return d == G1, f"det = {d}"

    _run_claim(claims, "block-realizer-det-one", gbl_det)

    def gbl_cocycle():
        w = diagonal_structure(2).to_weyl(GBL.inverse() * GBL.conjugate())
        return w == transposition(1, 2, 2), f"weyl = {w.cycle_string()}"

    _run_claim(claims, "block-realizer-galois-cocycle", gbl_cocycle)


def _verify_tori(spec: GroupSpec, claims: list[ClaimResult]) -> None:
    """Four claims per torus realizer g: det g is a unit, g^-1 theta(g)
    (theta(g) = g for SL2n) and g^-1 Galois(g) give the twist class, and g
    conjugates the diagonal torus into the block shape of the descriptor's
    pairs: U^-1 g D g^-1 U = D for a diagonal D with pairwise distinct
    entries, with U the diagonalizer (UCIRC for GL and SL2n, UHYP for
    U(p,q)) placed on the pairs.  X = U^-1 g then commutes with D, which
    holds exactly when X is diagonal, so the claim takes one product."""
    diag = spec.torus_structure  # the diagonal torus in these families
    block = UHYP if spec.family == "Upq" else UCIRC
    block_inv = block.inverse()
    for desc in spec.tori:
        g, g_inv = desc.matrix, cache(desc.matrix.inverse)
        i = desc.index
        pairs = desc.realizer[2]
        expect = f" (expect a unit, 2^{len(pairs)})" if spec.family == "Upq" else ""

        def det_unit(g=g, expect=expect):
            d = g.det()
            return d.is_unit(), f"det = {d}{expect}"

        _run_claim(claims, f"torus-{i}-realizer-det-unit", det_unit)

        if spec.family == "SL2n":
            # The split realizers land in the fixed subgroup (any block of
            # determinant one preserves the alternating form), so all
            # their torus conjugates are stable; the twist class shows up
            # on the Galois side only.
            def theta_fixed(g=g):
                return theta_matrix(spec, g) == g, ""

            _run_claim(claims, f"torus-{i}-realizer-theta-fixed", theta_fixed)
        else:

            def theta_cocycle(g=g, g_inv=g_inv, c=desc.twist_class):
                w = diag.to_weyl(g_inv() * theta_matrix(spec, g))
                return w == c, f"weyl = {w.cycle_string()}"

            _run_claim(claims, f"torus-{i}-theta-cocycle", theta_cocycle)

        def galois_cocycle(g=g, g_inv=g_inv, c=desc.twist_class):
            w = diag.to_weyl(g_inv() * galois_matrix(spec, g))
            return w == c, f"weyl = {w.cycle_string()}"

        _run_claim(claims, f"torus-{i}-galois-cocycle", galois_cocycle)

        u_inv = placed(diag.size, [(pair, block_inv) for pair in pairs])

        def shape(g=g, g_inv=g_inv, u_inv=u_inv):
            g_inv()  # a realizer that is not a unit fails here
            x = u_inv * g
            return all(row.keys() <= {r} for r, row in enumerate(x.rows)), ""

        _run_claim(claims, f"torus-{i}-conjugate-shape", shape)


def _verify_soeven1(spec: GroupSpec, claims: list[ClaimResult]) -> None:
    n = spec.params[0]
    size = spec.torus_structure.size
    g = spec.tori[1].matrix
    g_inv = cache(g.inverse)
    fundamental = TorusStructure(
        _paired_labels(n) + (0,), tuple((p, UCIRC) for p in _circular_pairs(n))
    )

    def det_one():
        d = g.det()
        return d == G1, f"det = {d}"

    _run_claim(claims, "split-realizer-det-one", det_one)

    def form():
        b = ExactMatrix.diagonal([1] * (size - 1) + [-1])
        return g.transpose() * b * g == b, ""

    _run_claim(claims, "split-realizer-preserves-form", form)

    def cocycle_exact():
        z = g_inv() * theta_matrix(spec, g)
        want = ExactMatrix.diagonal([1] * (size - 2) + [-1, -1])
        return z == want, ""

    _run_claim(claims, "split-theta-cocycle-exact", cocycle_exact)

    def cocycle_weyl():
        w = fundamental.to_weyl(g_inv() * theta_matrix(spec, g))
        return w == sign_flip([n], n), f"weyl = {w.images}"

    _run_claim(claims, "split-theta-cocycle-weyl", cocycle_weyl)

    def galois_weyl():
        w = fundamental.to_weyl(g_inv() * galois_matrix(spec, g))
        return (
            w == sign_flip([n], n) and coset_table(spec, 1).canon(w).is_identity(),
            f"weyl = {w.images}",
        )

    _run_claim(claims, "split-galois-cocycle-in-little-weyl", galois_weyl)

    def shape():
        vals = fundamental.sample_point()
        want = spec.torus_structure.embed(vals[: n - 1] + (vals[n - 1].inverse(),))
        return g * fundamental.embed(vals) * g_inv() == want, ""

    _run_claim(claims, "split-torus-conjugate-shape", shape)
