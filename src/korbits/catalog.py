"""The catalog of classical symmetric pairs and their orbit data.

Each family builder packages, for one classical symmetric pair defined over
the dyadic integers, everything the downstream machinery needs: the Weyl
group with its twist context, the lattice involution of the maximally split
stable torus, one descriptor per known torus class (twist class element,
realizing matrix over the Gaussian dyadics, generators of the little Weyl
group when a closed form is known, and the Galois rule on orbit
parameters), and the reference orbit whose value is the top of the monoid
order.

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

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .dyadic import (
    D0,
    Dyadic,
    DyadicGauss,
    ExactMatrix,
    G1,
    GI,
    TorusStructure,
    UCIRC,
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
    "wk_subgroup",
    "coset_table",
    "cosets",
    "sweep_domain",
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


@dataclass(frozen=True)
class TorusDescriptor:
    """One known class of stable maximal tori inside a family."""

    index: int
    twist_class: SignedPerm
    matrix: ExactMatrix | None = None
    wk_generators: tuple[SignedPerm, ...] | None = None
    galois_conj: SignedPerm | None = None
    galois_left: SignedPerm | None = None
    galois_right: SignedPerm | None = None
    galois_rule: str | None = None  # trivial | right_w0 | general


@dataclass(frozen=True)
class GroupSpec:
    """A symmetric pair with its complete orbit bookkeeping data."""

    family: str
    params: tuple[int, ...]
    name: str
    group: WeylGroup
    context: TwistContext
    lattice: ThetaLattice
    tori: tuple[TorusDescriptor, ...]
    reference_orbit: tuple[int, SignedPerm]
    torus_structure: TorusStructure
    lattice_realizer: ExactMatrix | None = None

    def descriptor(self, i: int) -> TorusDescriptor:
        if not 0 <= i < len(self.tori):
            raise TorusIndexOutOfRange(
                f"{self.name} has torus indices 0..{len(self.tori) - 1}, got {i}"
            )
        return self.tori[i]

    def torus_classes(self) -> tuple[TorusClass, ...]:
        return self._torus_classes

    @cached_property
    def _torus_classes(self) -> tuple[TorusClass, ...]:
        return torus_classification(self.lattice)

    @cached_property
    def _coset_tables(self) -> tuple[CosetTable | None, ...]:
        """Coset table of each torus's little Weyl group (None without data)."""
        group = self.group
        return tuple(
            None if d.wk_generators is None else CosetTable(d.wk_generators, group)
            for d in self.tori
        )

    @cached_property
    def _orbit_parameters(self) -> tuple[OrbitParam, ...]:
        """Every orbit parameter with its Springer value, computed once."""
        out = []
        for desc in self.tori:
            table = coset_table(self, desc.index)
            for rep in table.reps:
                out.append(
                    OrbitParam(
                        torus_index=desc.index,
                        rep=rep,
                        coset_size=table.size,
                        value=springer(self, desc.index, rep),
                        length=self.group.length(rep),
                    )
                )
        return tuple(out)


@dataclass(frozen=True)
class OrbitParam:
    """One orbit parameter: a torus index with a coset representative."""

    torus_index: int
    rep: SignedPerm
    coset_size: int
    value: SignedPerm
    length: int


@dataclass(frozen=True)
class ClaimResult:
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


def _transposition_product(
    pairs: Iterable[tuple[int, int]], rank: int
) -> SignedPerm:
    w = identity(rank)
    for i, j in pairs:
        w = w * transposition(i, j, rank)
    return w


def _symplectic_j(n: int) -> ExactMatrix:
    blk = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    return placed(2 * n, [((2 * j - 1, 2 * j), blk) for j in range(1, n + 1)])


# -- family builders -------------------------------------------------------


def _gl_spec(n: int) -> GroupSpec:
    if n < 1:
        raise InvalidParams("GL needs n >= 1")
    W = symmetric_group(n)
    ctx = TwistContext(W, sign_flip(range(1, n + 1), n), W.longest_element())
    lattice = ThetaLattice(
        W, tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
    )
    tori = []
    for i in range(n // 2 + 1):
        c = _transposition_product([(2 * j - 1, 2 * j) for j in range(1, i + 1)], n)
        g = placed(n, [((2 * j - 1, 2 * j), UCIRC) for j in range(1, i + 1)])
        tori.append(TorusDescriptor(index=i, twist_class=c, matrix=g))
    return GroupSpec(
        family="GL",
        params=(n,),
        name=f"GL({n})",
        group=W,
        context=ctx,
        lattice=lattice,
        tori=tuple(tori),
        reference_orbit=(0, identity(n)),
        torus_structure=diagonal_structure(n),
    )


def _sl2n_wk_generators(n: int, i: int) -> tuple[SignedPerm, ...]:
    r = 2 * n
    gens: list[SignedPerm] = []
    if i < n:
        gens += [transposition(2 * j - 1, 2 * j, r) for j in range(1, i + 1)]
        gens += [
            transposition(2 * j - 1, 2 * j + 1, r)
            * transposition(2 * j, 2 * j + 2, r)
            for j in range(1, i)
        ]
        gens += [transposition(j, j + 1, r) for j in range(2 * i + 1, r)]
    else:
        gens += [
            transposition(2 * j - 1, 2 * j, r)
            * transposition(2 * j + 1, 2 * j + 2, r)
            for j in range(1, n)
        ]
        gens += [
            transposition(2 * j - 1, 2 * j + 1, r)
            * transposition(2 * j, 2 * j + 2, r)
            for j in range(1, n)
        ]
    return tuple(gens)


def _pairing_lattice(W: WeylGroup, n: int) -> ThetaLattice:
    r = 2 * n
    pairing = _transposition_product(
        [(2 * j - 1, 2 * j) for j in range(1, n + 1)], r
    )
    return ThetaLattice(
        W,
        tuple(
            tuple(-1 if pairing[j] == i + 1 else 0 for j in range(r))
            for i in range(r)
        ),
    )


def _sl2n_spec(n: int) -> GroupSpec:
    if n < 1:
        raise InvalidParams("SL2n needs n >= 1")
    r = 2 * n
    W = symmetric_group(r)
    ctx = TwistContext(W, sign_flip(range(1, r + 1), r), W.longest_element())
    tori = []
    for i in range(n + 1):
        c = _transposition_product([(2 * j - 1, 2 * j) for j in range(1, i + 1)], r)
        g = placed(r, [((2 * j - 1, 2 * j), GBL) for j in range(1, i + 1)])
        tori.append(
            TorusDescriptor(
                index=i,
                twist_class=c,
                matrix=g,
                wk_generators=_sl2n_wk_generators(n, i),
                galois_left=c,
                galois_rule="general",
            )
        )
    return GroupSpec(
        family="SL2n",
        params=(n,),
        name=f"SL({r})/Sp",
        group=W,
        context=ctx,
        lattice=_pairing_lattice(W, n),
        tori=tuple(tori),
        reference_orbit=(0, identity(r)),
        torus_structure=diagonal_structure(r),
    )


def _ustar_spec(n: int) -> GroupSpec:
    if n < 1:
        raise InvalidParams("Ustar needs n >= 1")
    r = 2 * n
    W = symmetric_group(r)
    pairing = _transposition_product(
        [(2 * j - 1, 2 * j) for j in range(1, n + 1)], r
    )
    minus_pairing = SignedPerm(-v for v in pairing)
    base = pairing * W.longest_element()
    ctx = TwistContext(W, minus_pairing, base)
    tori = (TorusDescriptor(index=0, twist_class=identity(r)),)
    return GroupSpec(
        family="Ustar",
        params=(n,),
        name=f"U*({r})",
        group=W,
        context=ctx,
        lattice=_pairing_lattice(W, n),
        tori=tori,
        reference_orbit=(0, identity(r)),
        torus_structure=diagonal_structure(r),
    )


def _soodd1_spec(n: int) -> GroupSpec:
    if n < 1:
        raise InvalidParams("SOodd1 needs n >= 1")
    rank = n + 1
    W = even_hyperoctahedral_group(rank)
    d = sign_flip([rank], rank)
    ctx = TwistContext(W, d, identity(rank))
    lattice = ThetaLattice(
        W,
        tuple(
            tuple((1 if i < rank - 1 else -1) if i == j else 0 for j in range(rank))
            for i in range(rank)
        ),
    )
    wk = tuple(transposition(i, i + 1, rank) for i in range(1, n)) + (
        sign_flip([n, rank], rank),
    )
    tori = (
        TorusDescriptor(
            index=0,
            twist_class=identity(rank),
            wk_generators=wk,
            galois_conj=d,
            galois_right=W.longest_element(),
            galois_rule="general",
        ),
    )
    structure = TorusStructure(
        2 * rank,
        tuple(("pair1", 2 * j - 1, 2 * j, "circular") for j in range(1, rank))
        + (("pair1", 2 * rank - 1, 2 * rank, "hyperbolic"),),
    )
    return GroupSpec(
        family="SOodd1",
        params=(n,),
        name=f"SO({2 * n + 1},1)",
        group=W,
        context=ctx,
        lattice=lattice,
        tori=tori,
        reference_orbit=(0, transposition(1, rank, rank)),
        torus_structure=structure,
    )


def _soeven1_spec(n: int) -> GroupSpec:
    if n < 1:
        raise InvalidParams("SOeven1 needs n >= 1")
    W = hyperoctahedral_group(n)
    ctx = TwistContext(W, identity(n), identity(n))
    lattice = ThetaLattice(
        W,
        tuple(
            tuple((1 if i < n - 1 else -1) if i == j else 0 for j in range(n))
            for i in range(n)
        ),
    )
    size = 2 * n + 1
    g0 = placed(size, [((size - 2, size - 1, size), M3)])
    centralizer = (
        tuple(transposition(i, i + 1, n) for i in range(1, n - 1))
        + ((sign_flip([n - 1], n),) if n >= 2 else ())
        + (sign_flip([n], n),)
    )
    tori = (
        TorusDescriptor(
            index=0,
            twist_class=identity(n),
            wk_generators=W.simple_reflections(),
            galois_rule="trivial",
        ),
        TorusDescriptor(
            index=1,
            twist_class=sign_flip([n], n),
            matrix=g0,
            wk_generators=centralizer,
            galois_left=sign_flip([n], n),
            galois_rule="trivial",
        ),
    )
    # Reference structure is the torus of the split class: n-1 rotation
    # blocks, a constant slot, then one split block.
    structure = TorusStructure(
        size,
        tuple(("pair1", 2 * j - 1, 2 * j, "circular") for j in range(1, n))
        + (("trivial", size - 2), ("pair1", size - 1, size, "hyperbolic")),
    )
    ref_rep = transposition(1, n, n) if n > 1 else identity(1)
    return GroupSpec(
        family="SOeven1",
        params=(n,),
        name=f"SO({2 * n},1)",
        group=W,
        context=ctx,
        lattice=lattice,
        tori=tori,
        reference_orbit=(1, ref_rep),
        torus_structure=structure,
    )


def _upq_wk_generators(p: int, q: int, i: int) -> tuple[SignedPerm, ...]:
    n = p + q
    head = p - q + i
    gens: list[SignedPerm] = []
    gens += [transposition(j, j + 1, n) for j in range(1, head)]
    gens += [
        transposition(head + j, head + j + 1, n)
        * transposition(n - q + i + j, n - q + i + j + 1, n)
        for j in range(1, q - i)
    ]
    gens += [transposition(head + j, n - q + i + j, n) for j in range(1, q - i + 1)]
    gens += [transposition(j, j + 1, n) for j in range(p + 1, p + i)]
    return tuple(gens)


def _upq_spec(p: int, q: int) -> GroupSpec:
    if q < 1 or p < q:
        raise InvalidParams("Upq needs p >= q >= 1")
    n = p + q
    W = symmetric_group(n)
    ctx = TwistContext(W, identity(n), identity(n))
    c0 = _transposition_product([(p - q + j, n - q + j) for j in range(1, q + 1)], n)
    lattice = ThetaLattice(W, tuple(tuple(r) for r in c0.matrix()))
    w0 = W.longest_element()
    tori = []
    for i in range(q + 1):
        pairs = [(p - q + i + j, n - q + i + j) for j in range(1, q - i + 1)]
        c = _transposition_product(pairs, n)
        g = placed(n, [(pair, HSPLIT) for pair in pairs])
        tori.append(
            TorusDescriptor(
                index=i,
                twist_class=c,
                matrix=g,
                wk_generators=_upq_wk_generators(p, q, i),
                galois_right=w0,
                galois_rule="right_w0",
            )
        )
    w_ref = [0] * n
    for j in range(1, q + 1):
        w_ref[j - 1] = p - q + j
        w_ref[n - j] = n - q + j
    for a in range(1, p - q + 1):
        w_ref[q + a - 1] = a
    return GroupSpec(
        family="Upq",
        params=(p, q),
        name=f"U({p},{q})",
        group=W,
        context=ctx,
        lattice=lattice,
        tori=tuple(tori),
        reference_orbit=(0, from_one_line(w_ref)),
        torus_structure=diagonal_structure(n),
        lattice_realizer=tori[0].matrix,
    )


def _restriction_spec(r: int) -> GroupSpec:
    if r < 1:
        raise InvalidParams("Restriction needs r >= 1")
    W = product_symmetric_group(r)
    rank = 2 * r
    tau = from_one_line(list(range(r + 1, rank + 1)) + list(range(1, r + 1)))
    ctx = TwistContext(W, tau, identity(rank))
    lattice = ThetaLattice(W, tuple(tuple(r) for r in tau.matrix()))
    wk = tuple(
        transposition(j, j + 1, rank) * transposition(r + j, r + j + 1, rank)
        for j in range(1, r)
    )
    tori = (
        TorusDescriptor(
            index=0,
            twist_class=identity(rank),
            wk_generators=wk,
            galois_rule="trivial",
        ),
    )
    ref = from_one_line(list(range(r, 0, -1)) + list(range(r + 1, rank + 1)))
    return GroupSpec(
        family="Restriction",
        params=(r,),
        name=f"Res({r})",
        group=W,
        context=ctx,
        lattice=lattice,
        tori=tori,
        reference_orbit=(0, ref),
        torus_structure=diagonal_structure(rank),
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
    return builder(*params)


# -- orbit parameters -------------------------------------------------------


def a_max(spec: GroupSpec) -> SignedPerm:
    i, w = spec.reference_orbit
    return springer(spec, i, w)


def springer(spec: GroupSpec, i: int, w: SignedPerm) -> SignedPerm:
    return springer_value(spec.context, spec.descriptor(i).twist_class, w)


def _wk_generators(spec: GroupSpec, i: int) -> tuple[SignedPerm, ...]:
    gens = spec.descriptor(i).wk_generators
    if gens is None:
        raise MissingWkData(
            f"{spec.name} has no little-Weyl-group data for torus {i}; "
            "use the twisted-involution interface"
        )
    return gens


def wk_subgroup(spec: GroupSpec, i: int) -> frozenset[SignedPerm]:
    gens = _wk_generators(spec, i)
    if not gens:
        return frozenset({spec.group.identity()})
    return enumerate_subgroup(gens)


def coset_table(spec: GroupSpec, i: int) -> CosetTable:
    """The coset table of torus i's little Weyl group, built on first use."""
    _wk_generators(spec, i)
    return spec._coset_tables[i]


def cosets(spec: GroupSpec, i: int) -> list[tuple[SignedPerm, frozenset[SignedPerm]]]:
    return coset_space(_wk_generators(spec, i), spec.group)


def sweep_domain(spec: GroupSpec, i: int) -> tuple[SignedPerm, ...]:
    """Elements to sweep for torus i: coset representatives when the
    little Weyl group is known, the whole group otherwise."""
    desc = spec.descriptor(i)
    if desc.wk_generators is None:
        return spec.group.sorted_elements()
    return coset_table(spec, i).reps


def orbit_parameters(spec: GroupSpec) -> tuple[OrbitParam, ...]:
    return spec._orbit_parameters


# -- matrix-level involutions ----------------------------------------------


def theta_matrix(spec: GroupSpec, m: ExactMatrix) -> ExactMatrix:
    """The group involution, applied to a matrix point."""
    fam = spec.family
    if fam == "GL":
        return m.transpose().inverse()
    if fam in ("SL2n", "Ustar"):
        j = _symplectic_j(spec.params[0])
        return j * m.transpose().inverse() * j.inverse()
    if fam in ("SOodd1", "SOeven1"):
        q = ExactMatrix.diagonal([1] * (spec.torus_structure.size - 1) + [-1])
        return q * m * q
    if fam == "Upq":
        p, qq = spec.params
        j = ExactMatrix.diagonal([1] * p + [-1] * qq)
        return j * m * j
    if fam == "Restriction":
        r = spec.params[0]
        swap = ExactMatrix.from_rows([[0, 1], [1, 0]])
        pi = placed(2 * r, [((j, r + j), swap) for j in range(1, r + 1)])
        return pi * m * pi
    raise InvalidParams(f"no matrix involution for family {fam}")


def galois_matrix(spec: GroupSpec, m: ExactMatrix) -> ExactMatrix:
    """The Galois conjugation of the quadratic extension, on matrices."""
    fam = spec.family
    if fam == "Ustar":
        j = _symplectic_j(spec.params[0])
        return j * m.conjugate() * j.inverse()
    if fam == "Upq":
        p, qq = spec.params
        j = ExactMatrix.diagonal([1] * p + [-1] * qq)
        return j * m.conj_transpose().inverse() * j
    return m.conjugate()


# -- claim verification ------------------------------------------------------


def _lattice_transform(
    spec: GroupSpec, values: Sequence[DyadicGauss]
) -> tuple[DyadicGauss, ...]:
    sp = spec.lattice.as_signed_perm()
    out: list[DyadicGauss] = [G1] * len(values)
    for j, img in enumerate(sp):
        out[abs(img) - 1] = values[j] if img > 0 else values[j].inverse()
    return tuple(out)


def _slot_reorder(
    struct: TorusStructure, diag_values: Sequence[DyadicGauss]
) -> tuple[DyadicGauss, ...]:
    """Expected coordinates when a diagonal matrix is rewritten in a block
    structure of the same size: coordinate k takes the diagonal value at
    its primary slot."""
    out: list[DyadicGauss] = [G1] * struct.rank
    for slot, lab in enumerate(struct.slot_labels()):
        if lab is not None and lab[1] == 1:
            out[lab[0] - 1] = diag_values[slot]
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
    ``SubgroupTooLarge`` rather than reporting a failure."""
    claims: list[ClaimResult] = []
    struct = spec.torus_structure
    # One instance per distinct structure, so each diagonalizer is inverted once.
    shared = {struct: struct}

    def share(s: TorusStructure) -> TorusStructure:
        return shared.setdefault(s, s)

    sample = struct.sample_point()
    point = struct.embed(sample)
    realizer = spec.lattice_realizer
    if realizer is not None:
        point = realizer * point * realizer.inverse()

    def involution():
        return theta_matrix(spec, theta_matrix(spec, point)) == point, ""

    _run_claim(claims, "theta-squares-to-identity-on-torus", involution)

    def lattice_match():
        moved = theta_matrix(spec, point)
        if realizer is not None:
            moved = realizer.inverse() * moved * realizer
        got = struct.extract(moved)
        return got == _lattice_transform(spec, sample), ""

    _run_claim(claims, "theta-matches-lattice-involution", lattice_match)

    if spec.family == "SL2n":
        _verify_block_realizer(claims, share)
    if spec.family in ("GL", "SL2n", "Upq"):
        _verify_tori(spec, claims, share)
    elif spec.family == "SOeven1":
        _verify_soeven1(spec, claims, share)
    return tuple(claims)


def _verify_block_realizer(claims: list[ClaimResult], share) -> None:
    def gbl_det():
        d = GBL.det()
        return d == G1, f"det = {d}"

    _run_claim(claims, "block-realizer-det-one", gbl_det)

    def gbl_cocycle():
        w = share(diagonal_structure(2)).to_weyl(GBL.inverse() * GBL.conjugate())
        return w == transposition(1, 2, 2), f"weyl = {w.cycle_string()}"

    _run_claim(claims, "block-realizer-galois-cocycle", gbl_cocycle)


def _verify_tori(spec: GroupSpec, claims: list[ClaimResult], share) -> None:
    """Four claims per torus realizer g: det g is a unit, g^-1 theta(g)
    (theta(g) = g for SL2n) and g^-1 Galois(g) give the twist class, and g
    conjugates the diagonal torus into the torus's block shape (circular
    pairs (2j-1, 2j) for GL and SL2n, hyperbolic pairs for U(p,q))."""
    n = spec.torus_structure.size
    diag = share(diagonal_structure(n))
    for desc in spec.tori:
        g = desc.matrix
        i = desc.index
        if spec.family == "Upq":
            p, q = spec.params
            pairs = [(p - q + i + j, n - q + i + j) for j in range(1, q - i + 1)]
            style, expect = "hyperbolic", f" (expect a unit, 2^{q - i})"
        else:
            pairs = [(2 * j - 1, 2 * j) for j in range(1, i + 1)]
            style, expect = "circular", ""

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

            def theta_cocycle(g=g, c=desc.twist_class):
                w = diag.to_weyl(g.inverse() * theta_matrix(spec, g))
                return w == c, f"weyl = {w.cycle_string()}"

            _run_claim(claims, f"torus-{i}-theta-cocycle", theta_cocycle)

        def galois_cocycle(g=g, c=desc.twist_class):
            w = diag.to_weyl(g.inverse() * galois_matrix(spec, g))
            return w == c, f"weyl = {w.cycle_string()}"

        _run_claim(claims, f"torus-{i}-galois-cocycle", galois_cocycle)

        in_pairs = {k for pair in pairs for k in pair}
        units = tuple(("pair2", a, b, style) for a, b in pairs) + tuple(
            ("coord", k) for k in range(1, n + 1) if k not in in_pairs
        )
        hstruct = share(TorusStructure(n, units))

        def shape(g=g, hstruct=hstruct):
            vals = diag.sample_point()
            got = hstruct.extract(g * ExactMatrix.diagonal(vals) * g.inverse())
            return got == _slot_reorder(hstruct, vals), ""

        _run_claim(claims, f"torus-{i}-conjugate-shape", shape)


def _verify_soeven1(spec: GroupSpec, claims: list[ClaimResult], share) -> None:
    n = spec.params[0]
    size = spec.torus_structure.size
    g = spec.tori[1].matrix
    fundamental = share(
        TorusStructure(
            size,
            tuple(("pair1", 2 * j - 1, 2 * j, "circular") for j in range(1, n + 1))
            + (("trivial", size),),
        )
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
        z = g.inverse() * theta_matrix(spec, g)
        want = ExactMatrix.diagonal([1] * (size - 2) + [-1, -1])
        return z == want, ""

    _run_claim(claims, "split-theta-cocycle-exact", cocycle_exact)

    def cocycle_weyl():
        w = fundamental.to_weyl(g.inverse() * theta_matrix(spec, g))
        return w == sign_flip([n], n), f"weyl = {w.images}"

    _run_claim(claims, "split-theta-cocycle-weyl", cocycle_weyl)

    def galois_weyl():
        w = fundamental.to_weyl(g.inverse() * galois_matrix(spec, g))
        return (
            w == sign_flip([n], n) and coset_table(spec, 1).canon(w).is_identity(),
            f"weyl = {w.images}",
        )

    _run_claim(claims, "split-galois-cocycle-in-little-weyl", galois_weyl)

    def shape():
        vals = fundamental.sample_point()
        got = spec.torus_structure.extract(g * fundamental.embed(vals) * g.inverse())
        want = vals[: n - 1] + (vals[n - 1].inverse(),)
        return got == want, ""

    _run_claim(claims, "split-torus-conjugate-shape", shape)
