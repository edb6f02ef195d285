"""Classical Weyl groups realized as signed permutations.

An element is a signed permutation of coordinates 1..rank, and it is the
tuple of its signed images: ``SignedPerm`` subclasses ``tuple``, so hashing,
equality and indexing are the tuple's.  A group is one of the classical
families needed downstream -- the symmetric group S_n acting on n
coordinates (type A), the full hyperoctahedral group (type B), its
even-sign-count subgroup (type D), and a block product S_r x S_r living in
rank 2r.  Each kind is one entry of the table ``_KINDS``: how many blocks of
coordinates it permutes and which sign changes it allows; membership,
order, roots, simple reflections, w0 and enumeration all read that entry.
Positive roots are kept sparse, as (i, c_i, j, c_j) for c_i e_i + c_j e_j;
``positive_roots`` alone builds them as vectors.  Every positive root has
leading nonzero coordinate +1, so w(alpha) is negative exactly when its
coefficient at the smallest coordinate is: ``length`` reads that sign from
two images per root, and ``is_left_ascent`` reads the sign of w^-1(alpha_s)
from where the coordinates of alpha_s sit in w.  A rank past ``RANK_CAP``
is refused before anything is allocated.  A ``CosetTable`` finds the canonical
(``canonical_key``-least) representative of each right coset of a subgroup
as a minimal image, down a chain of pointwise stabilizers, with neither the
group nor the subgroup enumerated.  Subgroups, conjugation orbits and the
coset representatives are generator closures, all computed by one traversal
helper, ``closure``.  Products, inverses and enumerated elements are built
without re-validating their images; ``SignedPerm(...)`` and
``from_one_line`` validate values that arrive from outside.  Per-group data
(roots, the element set) is computed once per group instance.

>>> w = transposition(1, 3, 3)
>>> (w * w).is_identity()
True
>>> symmetric_group(3).length(w)
3
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")

__all__ = [
    "SignedPerm",
    "WeylGroup",
    "RankMismatch",
    "NotInGroup",
    "NotASubgroup",
    "SubgroupTooLarge",
    "identity",
    "transposition",
    "sign_flip",
    "from_one_line",
    "symmetric_group",
    "hyperoctahedral_group",
    "even_hyperoctahedral_group",
    "product_symmetric_group",
    "canonical_key",
    "enumerate_subgroup",
    "CosetTable",
    "coset_space",
    "conjugacy_classes",
    "SUBGROUP_CAP",
    "RANK_CAP",
]

#: Hard cap on group enumeration sizes (2^8 * 8!).
SUBGROUP_CAP = 2**8 * 40320

#: Hard cap on the rank of a group, checked before anything is allocated.
RANK_CAP = 1024


class RankMismatch(ValueError):
    """Raised when combining signed permutations of different ranks."""


class NotInGroup(ValueError):
    """Raised when an element does not belong to the stated group."""


class NotASubgroup(ValueError):
    """Raised when alleged subgroup generators fall outside the group."""


class SubgroupTooLarge(RuntimeError):
    """Raised when a generator closure exceeds the enumeration cap."""


class SignedPerm(tuple):
    """A signed permutation: the tuple of its signed images.

    ``w[j-1] == s*k`` means coordinate j maps to coordinate k with sign s
    (s is +1 or -1, coordinates are 1-based).  Hashing and equality are the
    tuple's.  ``SignedPerm(images)`` validates through ``__post_init__``;
    products, inverses and enumerated elements are built unchecked by
    ``_signed_perm``.
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "SignedPerm":
        w = tuple.__new__(cls, images)
        w.__post_init__()
        return w

    # Named as in a dataclass: perfbench's tracer counts the validations
    # through this class attribute.
    def __post_init__(self) -> None:
        if sorted(map(abs, self)) != list(range(1, len(self) + 1)):
            raise ValueError(f"not a signed permutation: {self.images}")

    @property
    def images(self) -> tuple[int, ...]:
        """The signed images as a plain tuple."""
        return tuple(self)

    @property
    def rank(self) -> int:
        return len(self)

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition: ``(w * v)`` applies v first, then w."""
        if len(self) != len(other):
            raise RankMismatch(f"rank {len(self)} vs {len(other)}")
        return _signed_perm([self[v - 1] if v > 0 else -self[-v - 1] for v in other])

    def inverse(self) -> "SignedPerm":
        out = [0] * len(self)
        for j, v in enumerate(self, start=1):
            out[abs(v) - 1] = j if v > 0 else -j
        return _signed_perm(out)

    def is_identity(self) -> bool:
        return all(v == j for j, v in enumerate(self, start=1))

    def is_involution(self) -> bool:
        return (self * self).is_identity()

    def apply(self, vector: Sequence) -> tuple:
        """Act on a rank-length coordinate vector."""
        if len(vector) != len(self):
            raise RankMismatch(f"vector length {len(vector)} vs rank {len(self)}")
        out = [0] * len(self)
        for j, v in enumerate(self):
            out[abs(v) - 1] = vector[j] if v > 0 else -vector[j]
        return tuple(out)

    def conjugate_by(self, t: "SignedPerm") -> "SignedPerm":
        """Return ``t * self * t^-1``."""
        return t * self * t.inverse()

    def signs(self) -> tuple[int, ...]:
        return tuple(1 if v > 0 else -1 for v in self)

    def permutation(self) -> tuple[int, ...]:
        return tuple(abs(v) for v in self)

    def matrix(self) -> list[list[int]]:
        m = [[0] * len(self) for _ in self]
        for j, v in enumerate(self):
            m[abs(v) - 1][j] = 1 if v > 0 else -1
        return m

    def cycle_string(self) -> str:
        """Disjoint-cycle notation; sign flips appended as a +/- vector."""
        perm = self.permutation()
        seen = [False] * len(self)
        cycles = []
        for start in range(1, len(self) + 1):
            if seen[start - 1] or perm[start - 1] == start:
                seen[start - 1] = True
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = perm[start - 1]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = perm[nxt - 1]
            cycles.append("(" + " ".join(str(c) for c in cyc) + ")")
        body = "".join(cycles) if cycles else "e"
        if any(v < 0 for v in self):
            marks = "".join("+" if s > 0 else "-" for s in self.signs())
            return f"{body}[{marks}]"
        return body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignedPerm{self.images}"


def _signed_perm(images: Iterable[int]) -> SignedPerm:
    """A SignedPerm from images already known to be a signed permutation
    (products, inverses, enumerated elements): skips the validation."""
    return tuple.__new__(SignedPerm, images)


def identity(rank: int) -> SignedPerm:
    return SignedPerm(range(1, rank + 1))


def transposition(i: int, j: int, rank: int) -> SignedPerm:
    """The plain transposition (i j); with i == j this is the identity."""
    out = list(range(1, rank + 1))
    out[i - 1], out[j - 1] = j, i
    return SignedPerm(out)


def sign_flip(coords: Iterable[int], rank: int) -> SignedPerm:
    out = list(range(1, rank + 1))
    for c in coords:
        out[c - 1] = -out[c - 1]
    return SignedPerm(out)


def from_one_line(images: Sequence[int]) -> SignedPerm:
    return SignedPerm(images)


def canonical_key(w: SignedPerm) -> tuple:
    """Sort key for canonical representatives: signs first, then one-line."""
    return (
        tuple(0 if v > 0 else 1 for v in w),
        tuple(abs(v) for v in w),
    )


#: Each kind of group as (blocks, sign rule): it permutes each of ``blocks``
#: runs of rank/blocks consecutive coordinates by the full symmetric group,
#: and allows the sign changes of its rule -- "none", an "even" number of
#: them, or "any" (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 8).
_KINDS = {"A": (1, "none"), "B": (1, "any"), "D": (1, "even"), "AxA": (2, "none")}

#: Whether a sign rule allows a given number of sign changes.
_SIGN_RULES: dict[str, Callable[[int], bool]] = {
    "none": lambda flips: flips == 0,
    "even": lambda flips: flips % 2 == 0,
    "any": lambda flips: True,
}

#: A root c_i e_i + c_j e_j with i < j (0-based) as (i, c_i, j, c_j); a
#: one-coordinate root c_i e_i reads (i, c_i, i, c_i).
Term = tuple[int, int, int, int]


def _reflection(term: Term, rank: int) -> SignedPerm:
    """The reflection in the root ``term``."""
    i, ci, j, cj = term
    out = list(range(1, rank + 1))
    out[i], out[j] = -ci * cj * (j + 1), -ci * cj * (i + 1)
    return _signed_perm(out)


@dataclass(frozen=True)
class WeylGroup:
    """One of the classical signed-permutation groups used downstream.

    ``kind`` is "A" (plain permutations), "B" (all signed permutations),
    "D" (even number of sign flips) or "AxA" (block-preserving permutations
    of rank 2r, no signs); ``_KINDS`` holds each as (blocks, sign rule).
    A group past ``RANK_CAP`` is refused on construction.
    """

    kind: str
    rank: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.rank > RANK_CAP:
            raise SubgroupTooLarge(
                f"rank of {self.describe()} = {self.rank} exceeds cap {RANK_CAP}"
            )
        blocks = _KINDS[self.kind][0]
        if self.rank % blocks:
            raise ValueError(f"{self.kind} groups need a rank divisible by {blocks}")

    @cached_property
    def _blocks(self) -> tuple[range, ...]:
        """The runs of coordinates (0-based) that the group permutes."""
        blocks = _KINDS[self.kind][0]
        r = self.rank // blocks
        return tuple(range(b * r, (b + 1) * r) for b in range(blocks))

    @cached_property
    def _allows(self) -> Callable[[int], bool]:
        """Whether the group has elements with the given number of sign changes."""
        return _SIGN_RULES[_KINDS[self.kind][1]]

    # -- membership and sizes -------------------------------------------

    def contains(self, w: SignedPerm) -> bool:
        return (
            len(w) == self.rank
            and self._allows(sum(v < 0 for v in w))
            and all(abs(w[k]) - 1 in b for b in self._blocks for k in b)
        )

    @cached_property
    def order(self) -> int:
        n = self.rank
        signs = sum(math.comb(n, k) for k in range(n + 1) if self._allows(k))
        return math.prod(math.factorial(len(b)) for b in self._blocks) * signs

    # -- roots, simples, lengths ----------------------------------------

    @cached_property
    def _root_terms(self) -> tuple[Term, ...]:
        """The positive roots: e_i - e_j within each block, then e_i + e_j
        when two sign changes are allowed, then e_i when one is."""
        pairs = [p for b in self._blocks for p in itertools.combinations(b, 2)]
        terms = [(i, 1, j, -1) for i, j in pairs]
        if self._allows(2):
            terms += [(i, 1, j, 1) for i, j in pairs]
        if self._allows(1):
            terms += [(i, 1, i, 1) for i in range(self.rank)]
        return tuple(terms)

    @cached_property
    def _simple_terms(self) -> dict[SignedPerm, Term]:
        """Each simple reflection, in order, with its simple root: e_i -
        e_(i+1) within each block, then e_n if one sign change is allowed,
        else e_(n-1) + e_n if two are."""
        n = self.rank
        terms = [(i, 1, i + 1, -1) for b in self._blocks for i in b[:-1]]
        if self._allows(1):
            terms.append((n - 1, 1, n - 1, 1))
        elif self._allows(2) and n >= 2:
            terms.append((n - 2, 1, n - 1, 1))
        return {_reflection(t, n): t for t in terms}

    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for i, ci, j, cj in self._root_terms:
            root = [0] * self.rank
            root[i], root[j] = ci, cj
            out.append(tuple(root))
        return tuple(out)

    def simple_reflections(self) -> tuple[SignedPerm, ...]:
        return tuple(self._simple_terms)

    def length(self, w: SignedPerm) -> int:
        if w.rank != self.rank:
            raise RankMismatch(f"rank {w.rank} vs group rank {self.rank}")
        if not self.contains(w):
            raise NotInGroup(f"{w} is not in {self.describe()}")
        # w(c_i e_i + c_j e_j) = c_i sign(x) e_|x| + c_j sign(y) e_|y| for
        # x = w[i] and y = w[j]; it is negative when the term at the
        # smaller coordinate is.
        count = 0
        for i, ci, j, cj in self._root_terms:
            x, y = w[i], w[j]
            if (ci * x if abs(x) <= abs(y) else cj * y) < 0:
                count += 1
        return count

    def is_left_ascent(self, s: SignedPerm, w: SignedPerm) -> bool:
        """Whether l(s w) > l(w), for a simple reflection s and w in the
        group: whether w^-1(alpha_s) is positive."""
        i, ci, j, cj = self._simple_terms[s]
        # w^-1(e_k) = sign(v) e_m for w[m-1] = v = +-k; x and y are those
        # signed m for the two coordinates of alpha_s.
        x = w.index(i + 1) + 1 if i + 1 in w else -w.index(-i - 1) - 1
        y = w.index(j + 1) + 1 if j + 1 in w else -w.index(-j - 1) - 1
        return (ci * x if abs(x) <= abs(y) else cj * y) > 0

    def longest_element(self) -> SignedPerm:
        """Negates as many leading coordinates as the sign rule allows (all,
        or all but the last for D of odd rank); with no sign change allowed
        it reverses each block."""
        n = self.rank
        flips = max(k for k in range(n + 1) if self._allows(k))
        if flips:
            images = tuple(range(-1, -flips - 1, -1)) + tuple(range(flips + 1, n + 1))
        else:
            images = tuple(k + 1 for b in self._blocks for k in reversed(b))
        w0 = _signed_perm(images)
        assert self.length(w0) == len(self._root_terms)
        return w0

    # -- enumeration ------------------------------------------------------

    def elements(self) -> Iterator[SignedPerm]:
        masks = [
            m
            for m in itertools.product((1, -1), repeat=self.rank)
            if self._allows(m.count(-1))
        ]
        for parts in itertools.product(
            *(itertools.permutations(range(b.start + 1, b.stop + 1)) for b in self._blocks)
        ):
            p = sum(parts, ())
            for mask in masks:
                yield _signed_perm([s * v for s, v in zip(mask, p)])

    def check_enumerable(self) -> None:
        """Raise ``SubgroupTooLarge`` if the group is past ``SUBGROUP_CAP``."""
        if self.order > SUBGROUP_CAP:
            raise SubgroupTooLarge(
                f"|{self.describe()}| = {self.order} exceeds cap {SUBGROUP_CAP}"
            )

    @cached_property
    def _element_set(self) -> frozenset[SignedPerm]:
        self.check_enumerable()
        return frozenset(self.elements())

    @cached_property
    def _sorted_elements(self) -> tuple[SignedPerm, ...]:
        return tuple(sorted(self._element_set, key=canonical_key))

    def element_set(self) -> frozenset[SignedPerm]:
        return self._element_set

    def sorted_elements(self) -> tuple[SignedPerm, ...]:
        return self._sorted_elements

    def identity(self) -> SignedPerm:
        return identity(self.rank)

    def describe(self) -> str:
        return self.name or f"{self.kind}(rank {self.rank})"


def symmetric_group(n: int) -> WeylGroup:
    return WeylGroup("A", n, name=f"S{n}")


def hyperoctahedral_group(n: int) -> WeylGroup:
    return WeylGroup("B", n, name=f"B{n}")


def even_hyperoctahedral_group(n: int) -> WeylGroup:
    return WeylGroup("D", n, name=f"D{n}")


def product_symmetric_group(r: int) -> WeylGroup:
    return WeylGroup("AxA", 2 * r, name=f"S{r}xS{r}")


def closure(
    seeds: Iterable[T], step: Callable[[T], Iterable[T]], cap: int = SUBGROUP_CAP
) -> frozenset[T]:
    """Smallest set containing the seeds and closed under ``step``.

    ``step(x)`` gives the neighbours of x.  Raises ``SubgroupTooLarge`` as
    soon as the set grows past ``cap``.
    """
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for y in step(todo.pop()):
            if y not in seen:
                seen.add(y)
                todo.append(y)
                if len(seen) > cap:
                    raise SubgroupTooLarge(f"closure exceeds cap {cap}")
    return frozenset(seen)


def enumerate_subgroup(
    generators: Iterable[SignedPerm], cap: int = SUBGROUP_CAP
) -> frozenset[SignedPerm]:
    """Closure of the generators under composition."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator (or pass the identity)")
    rank = gens[0].rank
    for g in gens:
        if g.rank != rank:
            raise RankMismatch("generators of mixed rank")
    return closure([identity(rank)], lambda w: [g * w for g in gens], cap)


def _sims_filter(perms: Iterable[SignedPerm]) -> tuple[SignedPerm, ...]:
    """At most n(n-1)/2 elements generating the same group as the plain
    permutations ``perms`` (Sims' filter: keep one element per first moved
    point i and its image, sift every other through the kept one)."""
    table: dict[tuple[int, int], SignedPerm] = {}
    for g in perms:
        while not g.is_identity():
            i = next(j for j, v in enumerate(g) if v != j + 1)
            kept = table.setdefault((i, g[i]), g)
            if kept is g:
                break
            g = kept.inverse() * g
    return tuple(table.values())


def _level(gens: tuple[SignedPerm, ...], rank: int) -> tuple:
    """(gens, transversal) for the group the plain permutations ``gens``
    generate; the transversal maps each point b to (the least point m of
    its orbit, an element v with v(b) = m)."""
    inverses = [g.inverse() for g in gens]
    transversal: dict[int, tuple[int, SignedPerm]] = {}
    for m in range(1, rank + 1):
        if m in transversal:
            continue
        transversal[m] = (m, _signed_perm(range(1, rank + 1)))
        todo = [m]
        while todo:
            b = todo.pop()
            for g, g_inv in zip(gens, inverses):
                c = g[b - 1]
                if c not in transversal:
                    transversal[c] = (m, transversal[b][1] * g_inv)
                    todo.append(c)
    return gens, transversal


class CosetTable:
    """Right cosets W_K\\W of the subgroup W_K generated by ``generators``,
    by canonical representatives, with neither W nor W_K enumerated.

    ``canon(x)`` is the ``canonical_key``-least element of W_K·x, a minimal
    image (Linton, ISSAC 2004) found in two phases.  Signs: the sign vector
    of h·x depends only on the sign pattern of h; one witness per pattern
    in the orbit of all-plus gives the least, at y0, and the members with it
    are K·y0 for K the sign-free part of W_K (Schreier generators of
    all-plus).  Absolute values: each position's value moves to the least
    point of its orbit under the pointwise stabilizer in K of the values
    already placed; each stabilizer comes from its parent by Schreier's
    lemma, reduced by Sims' filter, cached per fixed-point set.  ``reps``
    closes e under x -> canon(x·s) over W's simple reflections, and ``size``
    is |W_K| = |W| / len(reps).  A group past ``SUBGROUP_CAP`` is refused
    before anything is built.
    """

    def __init__(self, generators: Iterable[SignedPerm], group: WeylGroup):
        group.check_enumerable()
        self.group = group
        self.generators = tuple(generators)
        for g in self.generators:
            if not group.contains(g):
                raise NotASubgroup(f"generator {g} lies outside {group.describe()}")
        one = group.identity()
        self._witnesses = {one.signs(): one}
        schreier = []
        todo = [one]
        while todo:
            t = todo.pop()
            for g in self.generators:
                tg = t * g
                known = self._witnesses.setdefault(tg.signs(), tg)
                if known is tg:
                    todo.append(tg)
                else:
                    schreier.append(tg * known.inverse())
        #: The levels of K's stabilizer chain by fixed-point set.
        self._levels = {frozenset(): _level(_sims_filter(schreier), group.rank)}

    def _child(self, level: tuple, m: int, fixed: frozenset[int]) -> tuple:
        """The stabilizer of m in ``level`` (pointwise, of ``fixed``)."""
        gens, transversal = level
        schreier = []
        for root, v in transversal.values():
            if root == m:
                u = v.inverse()
                for g in gens:
                    gu = g * u
                    schreier.append(transversal[gu[m - 1]][1] * gu)
        self._levels[fixed] = _level(_sims_filter(schreier), self.group.rank)
        return self._levels[fixed]

    def canon(self, x: SignedPerm) -> SignedPerm:
        """The canonical_key-least element of W_K·x."""
        if len(self._witnesses) > 1:
            x = min(
                (t * x for t in self._witnesses.values()),
                key=lambda y: [v < 0 for v in y],
            )
        word = [abs(v) for v in x]
        level = self._levels[frozenset()]
        for j, b in enumerate(word):
            gens, transversal = level
            if not gens:
                break
            m, v = transversal[b]
            if b != m:
                word[j:] = [v[c - 1] for c in word[j:]]
            fixed = frozenset(word[: j + 1])
            level = self._levels.get(fixed) or self._child(level, m, fixed)
        return _signed_perm([w if v > 0 else -w for w, v in zip(word, x)])

    @cached_property
    def reps(self) -> tuple[SignedPerm, ...]:
        simples = self.group.simple_reflections()
        found = closure(
            [self.group.identity()], lambda x: [self.canon(x * s) for s in simples]
        )
        return tuple(sorted(found, key=canonical_key))

    @property
    def size(self) -> int:
        return self.group.order // len(self.reps)


def coset_space(
    subgroup_generators: Iterable[SignedPerm], group: WeylGroup
) -> list[tuple[SignedPerm, frozenset[SignedPerm]]]:
    """Right cosets H\\W with canonical representatives.

    Returns (representative, coset) pairs sorted by representative; the
    representative is the ``canonical_key``-least member (signs first, then
    one-line), so the subgroup itself is represented by the identity.
    """
    table = CosetTable(subgroup_generators, group)
    gens = table.generators
    sub = enumerate_subgroup(gens) if gens else frozenset({group.identity()})
    return [(rep, frozenset(h * rep for h in sub)) for rep in table.reps]


def conjugacy_classes(
    elements: Iterable[SignedPerm],
    conjugators: Iterable[SignedPerm],
) -> list[frozenset[SignedPerm]]:
    """Orbits of ``elements`` under conjugation by the group the
    conjugators generate (orbits computed generator-wise, so the
    conjugator group is never expanded)."""
    gens = [g for g in conjugators]
    gens += [g.inverse() for g in gens]
    todo = sorted(set(elements), key=canonical_key)
    member = set(todo)

    def conjugates(y: SignedPerm) -> Iterator[SignedPerm]:
        for g in gens:
            z = y.conjugate_by(g)
            if z not in member:
                raise ValueError("conjugation leaves the supplied element set")
            yield z

    seen: set[SignedPerm] = set()
    classes = []
    for x in todo:
        if x not in seen:
            orbit = closure([x], conjugates)
            seen |= orbit
            classes.append(orbit)
    return classes
