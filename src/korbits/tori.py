"""Classification of stable maximal tori from an involution on the
cocharacter lattice.

The input is an involution theta on the lattice of a maximally split stable
torus, together with the ambient Weyl group.  On every catalog family theta
is a signed permutation of the coordinates, and it is kept as one: theta(e_j)
is s e_k for the signed image s k = theta[j-1].  A root is the sparse term
(i, c_i, j, c_j) of ``WeylGroup._root_terms()``, so theta(alpha) is read from
two images.  One pass over the positive roots gives the subsystem Psi0 of
roots sent to their negatives and the lines of the restricted roots, the
projections (alpha - theta alpha)/2 onto the (-1)-eigenspace.  A
restricted root's line is that of the integer vector alpha - theta alpha, so
a gcd reads it and no fraction is formed; only the line matters for a
reflection, so restricted roots of two lengths on one line (the non-reduced
systems of U(p,q)) give one line.  The dimension of the (-1)-eigenspace is
(rank - trace)/2, since theta has eigenvalues +-1 only, and the trace of a
signed permutation is read from its fixed and negated coordinates.  The
classification itself -- involutions in the reflection group of Psi0, up to
conjugation by the reflections of the restricted roots -- runs on root
sets.  The involutions are the products of reflections in
pairwise-orthogonal Psi0 roots, so W(Psi0) itself is never listed, and each
keeps the indices of the roots it came from.  A reflection s conjugates such
a product root by root, s w s being the product of the reflections in the
images s(beta).  Each line's images are found once, as one table of Psi0
root indices per line, which also checks that the line normalizes Psi0 (see
``torus_classification``).  The reflections in the
simple lines generate the group of all the lines (Humphreys, *Reflection
Groups and Coxeter Groups*, 1990, section 1.5), so the classes are the
orbits of the simple lines' conjugations under ``weyl.conjugacy_classes``,
the package's one conjugation-orbit routine.
Each class corresponds to one conjugacy class of stable maximal tori; its
``minus_dimension``, the split dimension of the corresponding torus, is a
trace as well.
"""

from __future__ import annotations

from functools import cached_property, partial
from math import gcd
from typing import NamedTuple, Sequence

from .weyl import (
    SUBGROUP_CAP,
    SignedPerm,
    SubgroupTooLarge,
    Term,
    WeylGroup,
    _reflection,
    _signed_perm,
    conjugacy_classes,
    identity,
)

__all__ = [
    "ThetaLattice",
    "TorusClass",
    "torus_classification",
]

#: A sparse integer vector, {coordinate (0-based): nonzero entry}.
Vector = dict[int, int]


def _dot(a: Vector, b: Vector) -> int:
    return sum(c * b.get(k, 0) for k, c in a.items())


def _combine(a: int, u: Vector, b: int, v: Vector) -> Vector:
    """a u - b v, with its zeros dropped."""
    return {
        m: x for m in u.keys() | v.keys() if (x := a * u.get(m, 0) - b * v.get(m, 0))
    }


def _term(v: Vector) -> Term:
    """The term of a vector of root shape (+-e_i or +-e_i +- e_j)."""
    items = sorted(v.items())
    (i, ci), (j, cj) = items[0], items[-1]
    return (i, ci, j, cj)


class TorusClass(NamedTuple):
    """One conjugacy class of stable maximal tori."""

    index: int
    representative: SignedPerm
    orbit_size: int
    minus_dimension: int


def _trace(w: SignedPerm) -> int:
    """The trace of w's matrix: +1 per fixed coordinate, -1 per negated one."""
    return sum((v == j) - (v == -j) for j, v in enumerate(w, start=1))


class ThetaLattice:
    """Involution on the lattice of the split reference torus, as the signed
    permutation theta of its coordinates; compared and hashed by identity."""

    def __init__(self, group: WeylGroup, theta: SignedPerm) -> None:
        self.group = group
        self.theta = theta
        if len(theta) != group.rank:
            raise ValueError("lattice involution must have the group's rank")
        if not (theta * theta).is_identity():
            raise ValueError("lattice map is not an involution")

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """theta as a dense integer matrix, for readers outside the package:
        column j holds +-1 in row |theta(j)|."""
        w = self.theta
        return tuple(
            tuple((v == r) - (v == -r) for v in w) for r in range(1, len(w) + 1)
        )

    @property
    def rank(self) -> int:
        return self.group.rank

    @property
    def minus_dimension(self) -> int:
        """Dimension of the (-1)-eigenspace (the split directions): an
        involution has eigenvalues +-1 only, so it is (rank - trace)/2."""
        return (self.rank - _trace(self.theta)) // 2


def root_lines(theta: ThetaLattice) -> tuple[tuple[Term, ...], tuple[Vector, ...]]:
    """The positive Psi0 roots, and the restricted-root lines.

    One pass over the positive roots: alpha is in Psi0 when alpha - theta
    alpha = 2 alpha, and a nonzero alpha - theta alpha spans the line of the
    restricted root (alpha - theta alpha)/2.  Each line is its primitive
    integer vector, with a positive entry at its least coordinate; -alpha
    gives the same line, so the positive roots give them all.  theta(alpha)
    is read from the images of alpha's coordinates, and a root whose
    coordinates theta fixes is skipped at once.
    """
    w = theta.theta
    psi0, lines = [], {}
    for term in theta.group._root_terms():
        i, ci, j, cj = term
        if w[i] == i + 1 and w[j] == j + 1:
            continue
        alpha = {i: ci, j: cj}
        d = dict(alpha)
        for k, c in alpha.items():
            m, x = abs(w[k]) - 1, c if w[k] > 0 else -c
            d[m] = d.get(m, 0) - x
        d = {m: x for m, x in d.items() if x}
        if not d:
            continue
        if d == {i: 2 * ci, j: 2 * cj}:
            psi0.append(term)
        g = gcd(*d.values()) * (1 if d[min(d)] > 0 else -1)
        lines.setdefault(tuple(sorted((m, x // g) for m, x in d.items())), None)
    return tuple(psi0), tuple(dict(line) for line in lines)


def _involutions(
    psi: Sequence[Term], rank: int
) -> dict[SignedPerm, tuple[int, ...]]:
    """The involutions (including e) of the reflection group W(Psi0), each
    with the indices in ``psi`` of a set of pairwise-orthogonal Psi0 roots
    whose reflections multiply to it.

    Every involution is such a product (Carter 1972; Richardson 1982), so
    one walk over the sets of pairwise-orthogonal positive Psi0 roots finds
    them all.  A stack entry is a product w, the roots taken, and the roots
    still free to extend them: those orthogonal to every root taken and
    below the last one, so each set is reached once.  Different sets can
    give the same involution (-1 on B2 is s(e1) s(e2) and s(e1 - e2)
    s(e1 + e2)); the first set found is kept.  Raises ``SubgroupTooLarge``
    past ``SUBGROUP_CAP`` involutions.
    """
    roots = [{i: ci, j: cj} for i, ci, j, cj in psi]
    refl = [_reflection(t, rank) for t in psi]
    orth = [
        sum(1 << k for k, q in enumerate(roots) if not _dot(p, q)) for p in roots
    ]
    out: dict[SignedPerm, tuple[int, ...]] = {}
    stack = [(identity(rank), (), (1 << len(roots)) - 1)]
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
            stack.append((refl[j] * w, taken + (j,), free & orth[j]))
    return out


def _image_table(
    p: Vector, roots: Sequence[Vector], index: dict[Term, int]
) -> list[int]:
    """For each positive Psi0 root beta, the index of +-s(beta), where s is
    the reflection in the line p.

    With N = p.p, s(beta) = beta - (2(p.beta)/N) p.  A quotient that is not
    an integer means s does not normalize the subsystem; an image outside
    +-Psi0 means s leaves the reflection subgroup.  Both raise
    ``ValueError``.  An orthogonal map keeps lengths, so each integral
    s(beta) has a root's shape (+-e_i or +-e_i +- e_j).
    """
    norm = _dot(p, p)
    table = []
    for beta in roots:
        k, r = divmod(2 * _dot(beta, p), norm)
        if r:
            raise ValueError("reflection does not normalize the subsystem")
        i, ci, j, cj = _term(_combine(1, beta, k, p))
        at = index.get((i, 1, j, cj) if ci > 0 else (i, 1, j, -cj))
        if at is None:
            raise ValueError("conjugate leaves the reflection subgroup")
        table.append(at)
    return table


def _simple_lines(lines: Sequence[Vector]) -> list[int]:
    """The indices of the simple lines among the restricted-root lines.

    Each line is positive: its entry at its least coordinate is.  A line b
    is not simple exactly when some line q has (b, q) > 0 and s_q(b)
    positive, since then b = s_q(b) + k q with k > 0; the sign is read on
    the integer vector N s_q(b) = N b - 2(b.q) q, with N = q.q.  The
    reflections in the simple lines generate the group of all the lines
    (Humphreys, *Reflection Groups and Coxeter Groups*, 1990, section 1.5).
    """
    norms = [_dot(q, q) for q in lines]

    def decomposes(b: Vector, q: Vector, norm: int) -> bool:
        c = _dot(b, q)
        if c <= 0:
            return False
        v = _combine(norm, b, 2 * c, q)
        return v[min(v)] > 0

    return [
        k
        for k, b in enumerate(lines)
        if not any(decomposes(b, q, norm) for q, norm in zip(lines, norms))
    ]


def torus_classification(theta: ThetaLattice) -> tuple[TorusClass, ...]:
    """Conjugacy classes of stable maximal tori.

    Involutions (including e) of the reflection group W(Psi0), partitioned
    by ``conjugacy_classes`` under the reflections of the simple
    restricted-root lines, which generate the group of all the lines
    (``_simple_lines``).  An empty Psi0 yields the single class of the
    reference torus, e being the only involution.

    An involution w is the product of the reflections in its orthogonal
    Psi0 roots beta, so s w s is the product of the reflections in the
    roots s(beta).  Before the walk, every line's reflection s is checked
    once against every positive Psi0 root, and its images s(beta) are kept
    as one table of root indices per line (``_image_table``): a line that
    does not normalize the subsystem, or that leaves the reflection
    subgroup, raises ``ValueError`` there, simple or not.  The walk then
    only multiplies the reflections of the table images: no quotient, no
    vector arithmetic and no membership test per conjugation
    (``conjugacy_classes`` checks that every conjugate is an involution of
    W(Psi0)).

    The (-1)-eigenspace of w lies in span Psi0, inside the minus space of
    theta, so the minus dimension of w's class is theta's less that of w:
    ``theta.minus_dimension + (trace(w) - rank) / 2``.
    """
    rank = theta.rank
    psi0, lines = root_lines(theta)
    involutions = _involutions(psi0, rank)
    one = identity(rank)
    minus = theta.minus_dimension
    if not psi0:
        return (TorusClass(0, one, 1, minus),)
    roots = [{i: ci, j: cj} for i, ci, j, cj in psi0]
    index = {term: k for k, term in enumerate(psi0)}
    tables = [_image_table(p, roots, index) for p in lines]

    # The images of w's pairwise-orthogonal roots are pairwise orthogonal,
    # so their reflections commute: e is multiplied by each on the right,
    # an edit of the two images at the reflection's coordinates.
    def conjugate(table: list[int], w: SignedPerm) -> SignedPerm:
        images = list(one)
        for b in involutions[w]:
            i, ci, j, cj = psi0[table[b]]
            s = -ci * cj
            images[i], images[j] = s * images[j], s * images[i]
        return _signed_perm(images)

    conjugations = [partial(conjugate, tables[k]) for k in _simple_lines(lines)]
    classes = []
    for rep, orbit in conjugacy_classes(involutions, conjugations):
        classes.append((rep, len(orbit), minus + (_trace(rep) - rank) // 2))
    # Stable: the classes arrive in the canonical_key order of their reps.
    classes.sort(key=lambda t: -t[2])
    return tuple(
        TorusClass(i, rep, size, dim)
        for i, (rep, size, dim) in enumerate(classes)
    )
