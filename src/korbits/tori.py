"""Classification of stable maximal tori from an involution on the
cocharacter lattice.

The input is an integer involution M on the lattice of a maximally split
stable torus, together with the ambient Weyl group.  From M come the
(-1)-eigenspace, the restricted root vectors (projections
(alpha - M alpha)/2, kept with their non-reduced multiplicities) and the
subsystem Psi0 of roots sent to their negatives, all by exact rational
arithmetic.  The classification itself -- involutions in the reflection
group of Psi0, up to conjugation by the reflections of the restricted roots
-- runs in integers: each reflection is scaled by the squared length N of
the primitive integer direction of its root, so a conjugate s w s is an
integer matrix divided by N^2, read off as a signed permutation (see
``torus_classification``).  Each class corresponds to one conjugacy class
of stable maximal tori; its ``minus_dimension`` is the split dimension of
the corresponding torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .weyl import (
    SignedPerm,
    WeylGroup,
    _signed_perm,
    canonical_key,
    closure,
    enumerate_subgroup,
    identity,
    sign_flip,
)

__all__ = [
    "ThetaLattice",
    "TorusClass",
    "root_reflection",
    "torus_classification",
]


def _kernel(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of a rational matrix."""
    m = [row[:] for row in rows]
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(tuple(v))
    return basis


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
    support = [(i, c) for i, c in enumerate(alpha, start=1) if c]
    if len(support) == 1:
        return sign_flip([support[0][0]], rank)
    if len(support) == 2 and all(abs(c) == 1 for _, c in support):
        (i, ci), (j, cj) = support
        out = list(range(1, rank + 1))
        if ci == cj:
            out[i - 1], out[j - 1] = -j, -i
        else:
            out[i - 1], out[j - 1] = j, i
        return SignedPerm(out)
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
        sparse = [[(k, c) for k, c in enumerate(row) if c] for row in self.rows]
        for i, row in enumerate(sparse):
            sq = [0] * n
            for k, c in row:
                for j, d in sparse[k]:
                    sq[j] += c * d
            sq[i] -= 1
            if any(sq):
                raise ValueError("lattice map is not an involution")

    @property
    def rank(self) -> int:
        return self.group.rank

    def apply(self, v: Sequence) -> tuple:
        if len(v) != self.rank:
            raise ValueError(f"vector length {len(v)} vs lattice rank {self.rank}")
        return tuple(
            sum(self.rows[i][j] * v[j] for j in range(self.rank))
            for i in range(self.rank)
        )

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

    def minus_space(self) -> tuple[tuple[Fraction, ...], ...]:
        """Basis of the (-1)-eigenspace (the split directions)."""
        return self._minus_space

    @cached_property
    def _minus_space(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.rank
        rows = [
            [Fraction(self.rows[i][j] + int(i == j)) for j in range(n)]
            for i in range(n)
        ]
        return tuple(_kernel(rows, n))

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


def _fix_dimension_on_minus(
    w: SignedPerm, minus_basis: Sequence[Sequence[Fraction]]
) -> int:
    """dim { v in span(minus_basis) : w v = v }."""
    if not minus_basis:
        return 0
    n = w.rank
    k = len(minus_basis)
    cols = [w.apply(b) for b in minus_basis]
    rows = [
        [Fraction(cols[j][i]) - Fraction(minus_basis[j][i]) for j in range(k)]
        for i in range(n)
    ]
    return len(_kernel(rows, k))


def torus_classification(theta: ThetaLattice) -> tuple[TorusClass, ...]:
    """Conjugacy classes of stable maximal tori.

    Involutions (including e) of the reflection group W(Psi0), partitioned
    by conjugation under the reflections of the restricted roots (one per
    line).  An empty Psi0 yields the single class of the reference torus.

    A restricted root is taken by its primitive integer direction p, with
    N = p.p, so that N*s(v) = N*v - 2(p.v)p is integral.  The conjugate
    s w s of an involution w is built column by column: N*s(e_j), then w
    as a signed permutation, then N*s again, and the result divided by N^2
    is read off as a signed permutation.  A column not divisible by N^2
    means the reflection does not normalize the subsystem; a column that is
    not +-e_i, or a result outside W(Psi0), means the conjugate leaves the
    reflection subgroup.  Both raise ``ValueError``.
    """
    rank = theta.rank
    psi = theta.psi0()
    refl = []
    seen_lines = set()
    for a in psi:
        line = _primitive_line(a)
        if line not in seen_lines:
            seen_lines.add(line)
            refl.append(root_reflection(a, rank))
    w_psi = enumerate_subgroup(refl + [identity(rank)])
    involutions = sorted(
        (w for w in w_psi if (w * w).is_identity()), key=canonical_key
    )

    # per restricted-root line: p, N and the columns N*s(e_j)
    lines = []
    for p in dict.fromkeys(map(_primitive_line, theta.restricted_roots())):
        norm = sum(x * x for x in p)
        cols = [
            tuple(norm * (i == j) - 2 * p[j] * x for i, x in enumerate(p))
            for j in range(rank)
        ]
        lines.append((p, norm, cols))

    def conjugate(w: SignedPerm, line: tuple) -> SignedPerm:
        p, norm, cols = line
        out = []
        for col in cols:
            v = w.apply(col)
            dot = sum(a * b for a, b in zip(p, v))
            out.append([norm * a - 2 * dot * b for a, b in zip(v, p)])
        norm2 = norm * norm
        if any(x % norm2 for col in out for x in col):
            raise ValueError("reflection does not normalize the subsystem")
        images = []
        for col in out:
            nz = [(i, x // norm2) for i, x in enumerate(col, start=1) if x]
            if len(nz) != 1 or abs(nz[0][1]) != 1:
                raise ValueError("conjugate leaves the reflection subgroup")
            i, c = nz[0]
            images.append(i if c > 0 else -i)
        conj = _signed_perm(images)
        if conj not in w_psi:
            raise ValueError("conjugate leaves the reflection subgroup")
        return conj

    minus = theta.minus_space()
    classes = []
    seen: set[SignedPerm] = set()
    for w in involutions:
        if w in seen:
            continue
        orbit = closure([w], lambda x: [conjugate(x, line) for line in lines])
        seen |= orbit
        rep = min(orbit, key=canonical_key)
        classes.append((rep, len(orbit), _fix_dimension_on_minus(rep, minus)))
    classes.sort(key=lambda t: (-t[2], canonical_key(t[0])))
    return tuple(
        TorusClass(i, rep, size, dim)
        for i, (rep, size, dim) in enumerate(classes)
    )
