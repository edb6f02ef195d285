"""Classification of stable maximal tori from an involution on the
cocharacter lattice.

The input is an integer involution M on the lattice of a maximally split
stable torus, together with the ambient Weyl group.  From M come the
subsystem Psi0 of roots sent to their negatives, the dimension of the
(-1)-eigenspace, which is (rank - trace M)/2 since M has eigenvalues +-1
only, and the restricted root vectors (projections (alpha - M alpha)/2,
kept with their non-reduced multiplicities); only these last are
rational.  The classification itself -- involutions in the reflection
group of Psi0, up to conjugation by the reflections of the restricted roots
-- runs on root sets.  The involutions are the products of reflections in
pairwise-orthogonal Psi0 roots, so W(Psi0) itself is never listed, and
each keeps the roots it came from.  A reflection s conjugates such a
product root by root, s w s being the product of the reflections in the
images s(beta) (see ``torus_classification``).
Each class corresponds to one conjugacy class of stable maximal tori; its
``minus_dimension``, the split dimension of the corresponding torus, is a
trace as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .weyl import (
    SUBGROUP_CAP,
    SignedPerm,
    SubgroupTooLarge,
    WeylGroup,
    _reflection,
    canonical_key,
    closure,
    identity,
)

__all__ = [
    "ThetaLattice",
    "TorusClass",
    "root_reflection",
    "torus_classification",
]


def _primitive_line(v: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Primitive integer vector spanning the same line, sign-normalized."""
    den = lcm(*(f.denominator for f in v)) if v else 1
    ints = [int(f * den) for f in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def root_reflection(alpha: Sequence[int], rank: int) -> SignedPerm:
    """Reflection in a root of shape e_i, e_i - e_j or e_i + e_j."""
    support = [(i, 1 if c > 0 else -1) for i, c in enumerate(alpha) if c]
    if len(support) == 1:
        return _reflection(support[0] * 2, rank)
    if len(support) == 2 and all(c in (-1, 0, 1) for c in alpha):
        return _reflection(support[0] + support[1], rank)
    raise ValueError(f"no monomial reflection for root {tuple(alpha)}")


@dataclass(frozen=True)
class TorusClass:
    """One conjugacy class of stable maximal tori."""

    index: int
    representative: SignedPerm
    orbit_size: int
    minus_dimension: int


@dataclass(frozen=True)
class ThetaLattice:
    """Integer involution on the lattice of the split reference torus."""

    group: WeylGroup
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.group.rank
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("lattice involution must be rank x rank")
        # Square the map over the nonzero entries of each row.
        sparse = self._sparse
        for i, row in enumerate(sparse):
            sq = [0] * n
            for k, c in row:
                for j, d in sparse[k]:
                    sq[j] += c * d
            sq[i] -= 1
            if any(sq):
                raise ValueError("lattice map is not an involution")

    @cached_property
    def _sparse(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (column, entry) pairs of each row."""
        return tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in self.rows)

    @property
    def rank(self) -> int:
        return self.group.rank

    def apply(self, v: Sequence) -> tuple:
        if len(v) != self.rank:
            raise ValueError(f"vector length {len(v)} vs lattice rank {self.rank}")
        return tuple(sum(c * v[k] for k, c in row) for row in self._sparse)

    def as_signed_perm(self) -> SignedPerm:
        """The lattice map as a signed permutation (it must be monomial)."""
        images = [0] * self.rank
        for j in range(self.rank):
            col = [self.rows[i][j] for i in range(self.rank)]
            nz = [(i, c) for i, c in enumerate(col) if c]
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                raise ValueError("lattice map is not a signed permutation")
            i, c = nz[0]
            images[j] = (i + 1) * (1 if c > 0 else -1)
        return SignedPerm(images)

    def all_roots(self) -> tuple[tuple[int, ...], ...]:
        pos = self.group.positive_roots()
        return pos + tuple(tuple(-c for c in a) for a in pos)

    @property
    def minus_dimension(self) -> int:
        """Dimension of the (-1)-eigenspace (the split directions): an
        involution has eigenvalues +-1 only, so it is (rank - trace)/2."""
        return (self.rank - sum(row[i] for i, row in enumerate(self.rows))) // 2

    def restricted_roots(self) -> tuple[tuple[Fraction, ...], ...]:
        """Distinct nonzero projections (alpha - theta alpha)/2 of all
        roots onto the minus eigenspace.  The collection may be
        non-reduced (both beta and 2*beta can occur)."""
        seen = set()
        out = []
        for a in self.all_roots():
            ta = self.apply(a)
            beta = tuple(Fraction(x - y, 2) for x, y in zip(a, ta))
            if any(beta) and beta not in seen:
                seen.add(beta)
                out.append(beta)
        return tuple(sorted(out))

    def psi0(self) -> tuple[tuple[int, ...], ...]:
        """Roots alpha with theta(alpha) = -alpha."""
        out = [
            a
            for a in self.all_roots()
            if self.apply(a) == tuple(-c for c in a)
        ]
        return tuple(sorted(out))


def _involutions(
    psi: Sequence[Sequence[int]], rank: int
) -> dict[SignedPerm, tuple[tuple[int, ...], ...]]:
    """The involutions (including e) of the reflection group W(Psi0), each
    with a set of pairwise-orthogonal primitive Psi0 lines whose
    reflections multiply to it.

    Every involution is such a product (Carter 1972; Richardson 1982), so
    one walk over the sets of pairwise-orthogonal Psi0 lines finds them
    all.  A stack entry is a product w, the lines taken, and the lines
    still free to extend them: those orthogonal to every line taken and
    below the last one, so each set is reached once.  Different sets can
    give the same involution (-1 on B2 is s(e1) s(e2) and s(e1 - e2)
    s(e1 + e2)); the first set found is kept.  Raises ``SubgroupTooLarge``
    past ``SUBGROUP_CAP`` involutions.
    """
    lines = list(dict.fromkeys(map(_primitive_line, psi)))
    refl = [root_reflection(p, rank) for p in lines]
    orth = [
        sum(
            1 << k
            for k, q in enumerate(lines)
            if not sum(a * b for a, b in zip(p, q))
        )
        for p in lines
    ]
    out: dict[SignedPerm, tuple[tuple[int, ...], ...]] = {}
    stack = [(identity(rank), (), (1 << len(lines)) - 1)]
    while stack:
        w, taken, free = stack.pop()
        out.setdefault(w, taken)
        if len(out) > SUBGROUP_CAP:
            raise SubgroupTooLarge(
                f"involutions of W(Psi0) exceed cap {SUBGROUP_CAP}"
            )
        while free:
            j = free.bit_length() - 1
            free ^= 1 << j
            stack.append((refl[j] * w, taken + (lines[j],), free & orth[j]))
    return out


def torus_classification(theta: ThetaLattice) -> tuple[TorusClass, ...]:
    """Conjugacy classes of stable maximal tori.

    Involutions (including e) of the reflection group W(Psi0), partitioned
    by conjugation under the reflections of the restricted roots (one per
    line).  An empty Psi0 yields the single class of the reference torus.

    A restricted root is taken by its primitive integer direction p, with
    N = p.p, so its reflection is s(v) = v - (2(p.v)/N) p.  An involution w
    is the product of the reflections in its orthogonal Psi0 lines beta,
    so s w s is the product of the reflections in the lines s(beta).  A
    quotient 2(p.beta)/N that is not an integer means the reflection does
    not normalize the subsystem; a conjugate outside the involutions of
    W(Psi0) means it leaves the reflection subgroup.  Both raise
    ``ValueError``.  An orthogonal map keeps lengths, so each integral
    s(beta) has a root's shape (+-e_i or +-e_i +- e_j).

    The (-1)-eigenspace of w lies in span Psi0, inside the minus space of
    theta, so the minus dimension of w's class is theta's less that of w:
    ``theta.minus_dimension + (trace(w) - rank) / 2``.
    """
    rank = theta.rank
    involutions = _involutions(theta.psi0(), rank)
    lines = [
        (p, sum(x * x for x in p))
        for p in dict.fromkeys(map(_primitive_line, theta.restricted_roots()))
    ]
    one = identity(rank)

    def conjugate(w: SignedPerm, line: tuple) -> SignedPerm:
        p, norm = line
        conj = one
        for beta in involutions[w]:
            k, r = divmod(2 * sum(a * b for a, b in zip(p, beta)), norm)
            if r:
                raise ValueError("reflection does not normalize the subsystem")
            conj = root_reflection([b - k * x for b, x in zip(beta, p)], rank) * conj
        if conj not in involutions:
            raise ValueError("conjugate leaves the reflection subgroup")
        return conj

    minus = theta.minus_dimension
    classes = []
    seen: set[SignedPerm] = set()
    for w in involutions:
        if w in seen:
            continue
        orbit = closure([w], lambda x: [conjugate(x, line) for line in lines])
        seen |= orbit
        rep = min(orbit, key=canonical_key)
        trace = sum((v == j) - (v == -j) for j, v in enumerate(rep, start=1))
        classes.append((rep, len(orbit), minus + (trace - rank) // 2))
    classes.sort(key=lambda t: (-t[2], canonical_key(t[0])))
    return tuple(
        TorusClass(i, rep, size, dim)
        for i, (rep, size, dim) in enumerate(classes)
    )
