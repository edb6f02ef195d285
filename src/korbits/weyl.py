"""Classical Weyl groups realized as signed permutations.

An element is a signed permutation of coordinates 1..rank, and it is the
tuple of its signed images: ``SignedPerm`` subclasses ``tuple``, so hashing,
equality and indexing are the tuple's.  A group is one of the classical
families needed downstream -- the symmetric group S_n acting on n
coordinates (type A), the full hyperoctahedral group (type B), its
even-sign-count subgroup (type D), and a block product S_r x S_r living in
rank 2r.  Each kind is one entry of the table ``_KINDS``: how many blocks of
coordinates it permutes and which sign changes it allows; membership,
order, roots, simple reflections, w0 and the allowed sign vectors all read
that entry.
Positive roots are kept sparse, as (i, c_i, j, c_j) for c_i e_i + c_j e_j,
and no root is ever a rank-length vector.  Every positive root has
leading nonzero coordinate +1, so w(alpha) is negative exactly when its
coefficient at the smallest coordinate is.  Summed over the roots, that
makes ``length`` an inversion count with no list of roots (Bjorner-Brenti,
Combinatorics of Coxeter Groups, sec. 8.1): the inversions of |w|, plus 2
for each a < b with |w_a| < |w_b| and w_a < 0, plus the number of w_a < 0
in type B.  A simple reflection is kept as its root's term alone.  w0 is
checked by its length, which no other element reaches: the number of
positive roots, a closed form in the block sizes and the sign rule.
Membership reads only the sign count and, for AxA, where the first block
goes.  A rank past ``RANK_CAP`` is refused before anything is allocated.
A ``CosetTable`` finds the canonical (``canonical_key``-least)
representative of each right coset of a subgroup as a minimal image, down
a chain of pointwise stabilizers, and lists the representatives as the
elements that minimal image fixes, with neither the group nor the
subgroup enumerated.  Subgroups and conjugation orbits are generator
closures, computed by one traversal helper, ``closure``;
``conjugacy_classes`` is the one conjugation-orbit routine, and torus
classification runs through it.
Products, inverses, reflections and coset representatives are built
without re-validating their images; ``SignedPerm(...)`` validates values
that arrive from outside.  Per-group data (simple roots, sign vectors) is
computed once per group instance; the positive roots are generated afresh
for each pass, never stored.
Nothing here lists a whole Weyl group.

>>> w = transposition(1, 3, 3)
>>> (w * w).is_identity()
True
>>> symmetric_group(3).length(w)
3
"""

from __future__ import annotations

import bisect
import itertools
import math
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
    "symmetric_group",
    "hyperoctahedral_group",
    "even_hyperoctahedral_group",
    "product_symmetric_group",
    "canonical_key",
    "enumerate_subgroup",
    "CosetTable",
    "conjugacy_classes",
    "SUBGROUP_CAP",
    "RANK_CAP",
]

#: Hard cap (2^8 * 8!) on the order of a group whose coset tables or
#: twisted involutions are computed, and on the size of a closure or of a
#: list of involutions.
SUBGROUP_CAP = 2**8 * 40320

#: Hard cap on the rank of a group, checked before anything is allocated.
RANK_CAP = 1024

#: The decimal numeral of each coordinate up to the rank cap.
_NUMERALS = tuple(map(str, range(RANK_CAP + 1)))


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
    products, inverses and coset representatives are built unchecked by
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

    def signs(self) -> tuple[int, ...]:
        return tuple(1 if v > 0 else -1 for v in self)

    def cycle_string(self) -> str:
        """Disjoint-cycle notation; sign flips appended as a +/- vector.
        The numerals come from a table up to ``RANK_CAP``, the largest rank
        of any group."""
        # Each cycle is entered at its least coordinate, marking the rest.
        seen = [False] * (len(self) + 1)
        cycles = []
        for start, v in enumerate(self, start=1):
            nxt = abs(v)
            if nxt == start or seen[start]:
                continue
            cyc = [_NUMERALS[start]]
            while nxt != start:
                seen[nxt] = True
                cyc.append(_NUMERALS[nxt])
                nxt = abs(self[nxt - 1])
            cycles.append("(" + " ".join(cyc) + ")")
        body = "".join(cycles) or "e"
        if min(self, default=1) < 0:
            return body + "[" + "".join(["+" if v > 0 else "-" for v in self]) + "]"
        return body

    def __repr__(self) -> str:  # pragma: no cover - error messages print it
        return f"SignedPerm{self.images}"


def _signed_perm(images: Iterable[int]) -> SignedPerm:
    """A SignedPerm from images already known to be a signed permutation
    (products, inverses, reflections, coset representatives): skips the
    validation."""
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


def canonical_key(w: SignedPerm) -> tuple:
    """Sort key for canonical representatives: signs first (positive before
    negative, coordinate by coordinate), then the one-line absolute values."""
    return ([v < 0 for v in w], [*map(abs, w)])


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


class WeylGroup:
    """One of the classical signed-permutation groups used downstream.

    ``kind`` is "A" (plain permutations), "B" (all signed permutations),
    "D" (even number of sign flips) or "AxA" (block-preserving permutations
    of rank 2r, no signs); ``_KINDS`` holds each as (blocks, sign rule).
    A group past ``RANK_CAP`` is refused on construction.  Groups are
    compared and hashed by identity.
    """

    def __init__(self, kind: str, rank: int, name: str = "") -> None:
        self.kind = kind
        self.rank = rank
        self.name = name
        if kind not in _KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if rank > RANK_CAP:
            raise SubgroupTooLarge(
                f"rank of {self.describe()} = {rank} exceeds cap {RANK_CAP}"
            )
        blocks, rule = _KINDS[kind]
        if rank % blocks:
            raise ValueError(f"{kind} groups need a rank divisible by {blocks}")
        r = rank // blocks
        #: The runs of coordinates (0-based) that the group permutes.
        self._blocks = tuple(range(b * r, (b + 1) * r) for b in range(blocks))
        #: Whether the group has elements with the given number of sign changes.
        self._allows = _SIGN_RULES[rule]

    # -- membership and sizes -------------------------------------------

    def contains(self, w: SignedPerm) -> bool:
        """Whether w has the group's rank and sign rule, and for AxA (which
        allows no signs) whether its first block keeps to 1..rank/2."""
        if len(w) != self.rank or not self._allows(len([v for v in w if v < 0])):
            return False
        half = self.rank // 2
        return len(self._blocks) == 1 or max(w[:half], default=0) <= half

    @cached_property
    def order(self) -> int:
        n = self.rank
        signs = sum(math.comb(n, k) for k in range(n + 1) if self._allows(k))
        return math.prod(math.factorial(len(b)) for b in self._blocks) * signs

    # -- roots, simples, lengths ----------------------------------------

    def _root_terms(self) -> Iterator[Term]:
        """The positive roots, generated in order: e_i - e_j within each
        block, then e_i + e_j when two sign changes are allowed, then e_i
        when one is."""
        for cj in (-1, 1) if self._allows(2) else (-1,):
            for b in self._blocks:
                for i, j in itertools.combinations(b, 2):
                    yield (i, 1, j, cj)
        if self._allows(1):
            yield from ((i, 1, i, 1) for i in range(self.rank))

    @cached_property
    def _simple_terms(self) -> tuple[Term, ...]:
        """The simple roots, in order: e_i - e_(i+1) within each block, then
        e_n if one sign change is allowed, else e_(n-1) + e_n if two are."""
        n = self.rank
        terms = [(i, 1, i + 1, -1) for b in self._blocks for i in b[:-1]]
        if self._allows(1):
            terms.append((n - 1, 1, n - 1, 1))
        elif self._allows(2) and n >= 2:
            terms.append((n - 2, 1, n - 1, 1))
        return tuple(terms)

    def simple_reflections(self) -> tuple[SignedPerm, ...]:
        """The reflections in the simple roots, in order, built per call."""
        return tuple(_reflection(t, self.rank) for t in self._simple_terms)

    def length(self, w: SignedPerm) -> int:
        if w.rank != self.rank:
            raise RankMismatch(f"rank {w.rank} vs group rank {self.rank}")
        if not self.contains(w):
            raise NotInGroup(f"{w} is not in {self.describe()}")
        # For a < b, w sends e_a - e_b and e_a + e_b negative by the sign of
        # the image at the smaller coordinate.  When |w_a| > |w_b| that is
        # -w_b for one and w_b for the other: one inversion (e_a - e_b in A
        # and AxA, whose images are positive).  Otherwise it is w_a for
        # both: two when w_a < 0.  e_a (type B) goes negative when w_a does.
        # Scanning right to left, ``later`` holds the |w_b| for b > a, sorted.
        single = int(self._allows(1))
        later: list[int] = []
        count = 0
        for x in reversed(w):
            m = abs(x)
            smaller = bisect.bisect_left(later, m)
            count += smaller
            if x < 0:
                count += 2 * (len(later) - smaller) + single
            later.insert(smaller, m)
        return count

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
        # w0 is the one element whose length is the number of positive roots
        # (Bjorner-Brenti, Combinatorics of Coxeter Groups, sec. 2.3): e_i -
        # e_j within each block, e_i + e_j with two sign changes, e_i with one.
        pairs = sum(math.comb(len(b), 2) for b in self._blocks)
        assert self.length(w0) == (1 + self._allows(2)) * pairs + self._allows(1) * n
        return w0

    # -- sign vectors and the size cap -----------------------------------

    @cached_property
    def _sign_masks(self) -> tuple[tuple[int, ...], ...]:
        """Every sign vector the group allows, as +-1 tuples; only all-plus
        when it allows no sign change, without listing the 2^rank others."""
        if _KINDS[self.kind][1] == "none":
            return ((1,) * self.rank,)
        masks = itertools.product((1, -1), repeat=self.rank)
        return tuple(m for m in masks if self._allows(m.count(-1)))

    def check_enumerable(self) -> None:
        """Raise ``SubgroupTooLarge`` if the group is past ``SUBGROUP_CAP``."""
        if self.order > SUBGROUP_CAP:
            raise SubgroupTooLarge(
                f"|{self.describe()}| = {self.order} exceeds cap {SUBGROUP_CAP}"
            )

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


def _sims_filter(pairs: Iterable[tuple[tuple, tuple]], one: tuple) -> tuple:
    """At most n(n-1)/2 pairs (g, g^-1) generating the same group as the
    plain permutations g of ``pairs`` (Sims' filter: keep one pair per first
    moved point i of g and its image, sift every other through the kept one)."""
    table: dict[tuple[int, int], tuple[tuple, tuple]] = {}
    for g, g_inv in pairs:
        while g != one:
            i = next(j for j, v in enumerate(g) if v != j + 1)
            kept, kept_inv = table.setdefault((i, g[i]), (g, g_inv))
            if kept is g:
                break
            g = tuple([kept_inv[k - 1] for k in g])
            g_inv = tuple([g_inv[k - 1] for k in kept])
    return tuple(table.values())


def _level(gens: tuple, one: tuple) -> tuple:
    """(gens, transversal) for the group the plain permutations g of the pairs
    (g, g^-1) ``gens`` generate; the transversal maps each point b to (the
    least point m of its orbit, v with v(b) = m, v^-1), as image tuples."""
    transversal: dict[int, tuple[int, tuple, tuple]] = {}
    for m in range(1, len(one) + 1):
        if m in transversal:
            continue
        transversal[m] = (m, one, one)
        todo = [m]
        while todo:
            b = todo.pop()
            _, v, v_inv = transversal[b]
            for g, g_inv in gens:
                c = g[b - 1]
                if c not in transversal:  # v·g^-1 maps c to m; its inverse is g·v^-1
                    vg = tuple([v[k - 1] for k in g_inv])
                    transversal[c] = (m, vg, tuple([g[k - 1] for k in v_inv]))
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
    lemma, reduced by Sims' filter, cached per fixed-point set (kept as the
    int with bit v set for each fixed value v), each generator and transversal
    element an image tuple beside its inverse, so no child inverts.  ``reps``
    lists the x with canon(x) == x one position at a time, with no minimal
    image: each value the least of its orbit at its level, each sign vector
    no larger than any witness makes it (any, if e is the only witness).
    ``size`` is |W_K| = |W| / len(reps).  Groups past ``SUBGROUP_CAP`` are refused.
    """

    def __init__(self, generators: Iterable[SignedPerm], group: WeylGroup):
        group.check_enumerable()
        self.group = group
        generators = tuple(generators)
        for g in generators:
            if not group.contains(g):
                raise NotASubgroup(f"generator {g} lies outside {group.describe()}")
        self._one = one = group.identity()
        self._witnesses = {one.signs(): one}
        schreier = []
        todo = [one]
        while todo:
            t = todo.pop()
            for g in generators:
                tg = t * g
                known = self._witnesses.setdefault(tg.signs(), tg)
                if known is tg:
                    todo.append(tg)
                else:
                    schreier.append((tg * known.inverse(), known * tg.inverse()))
        #: The levels of K's stabilizer chain by fixed-point set, as a bitmask.
        self._levels = {0: _level(_sims_filter(schreier, one), one)}

    def _child(self, level: tuple, m: int, fixed: int) -> tuple:
        """The stabilizer of m in ``level`` (pointwise, of the values whose
        bits ``fixed`` sets)."""
        gens, transversal = level
        one, schreier = self._one, []
        for root, v, u in transversal.values():
            if root == m:
                for g, h in gens:  # s = w·g·u fixes m; its inverse is v·h·w^-1
                    _, w, w_inv = transversal[g[u[m - 1] - 1]]
                    s = tuple([w[g[k - 1] - 1] for k in u])
                    if s != one:
                        schreier.append((s, tuple([v[h[k - 1] - 1] for k in w_inv])))
        self._levels[fixed] = _level(_sims_filter(schreier, one), one)
        return self._levels[fixed]

    def canon(self, x: SignedPerm) -> SignedPerm:
        """The canonical_key-least element of W_K·x."""
        if len(self._witnesses) > 1:
            moved = [t * x for t in self._witnesses.values()]
            x = min(moved, key=lambda y: [v < 0 for v in y])
        word = [abs(v) for v in x]
        fixed, level = 0, self._levels[0]
        for j, b in enumerate(word):
            gens, transversal = level
            if not gens:
                break
            m, v, _ = transversal[b]
            if b != m:
                word[j:] = [v[c - 1] for c in word[j:]]
            fixed |= 1 << m
            level = self._levels.get(fixed) or self._child(level, m, fixed)
        return _signed_perm([w if v > 0 else -w for w, v in zip(word, x)])

    @cached_property
    def reps(self) -> tuple[SignedPerm, ...]:
        """The fixed points of ``canon``, one per coset, listed directly by
        orderly generation (McKay, J. Algorithms 26, 1998), in
        ``canonical_key`` order: the walk lists the absolute values in
        lexicographic order and the sign vectors come in key order, so each
        sign vector's bucket is already sorted (all-plus first, taking u)."""
        blocks, masks = self.group._blocks, self.group._sign_masks
        buckets: list[list[SignedPerm]] = [[] for _ in masks]
        plus, signed = buckets[0], list(zip(masks[1:], buckets[1:]))
        others = list(self._witnesses.values())[1:]

        def walk(word: tuple[int, ...], fixed: int, level: tuple) -> None:
            gens, transversal = level
            if gens:
                # canon leaves each value the least of its orbit under the
                # pointwise stabilizer of the values before it.
                b = next(b for b in blocks if len(word) in b)
                for c in range(b.start + 1, b.stop + 1):
                    if c not in word and transversal[c][0] == c:
                        key = fixed | 1 << c
                        child = self._levels.get(key) or self._child(level, c, key)
                        walk(word + (c,), key, child)
                return
            # No generators left: every arrangement of the rest is canonical,
            # and canon keeps the signs of x exactly when, for each witness t
            # but e, x is positive where t first turns a value of x negative.
            j = len(word)
            rest = [[k + 1 for k in b if k + 1 not in word] for b in blocks if b.stop > j]
            for parts in itertools.product(*map(itertools.permutations, rest)):
                u = word + sum(parts, ())
                plus.append(_signed_perm(u))
                pinned = {
                    next(k for k, v in enumerate(u) if t[v - 1] < 0) for t in others
                }
                for m, bucket in signed:
                    if not pinned or all(m[k] > 0 for k in pinned):
                        bucket.append(_signed_perm([s * v for s, v in zip(m, u)]))

        walk((), 0, self._levels[0])
        return tuple(itertools.chain.from_iterable(buckets))

    @property
    def size(self) -> int:
        return self.group.order // len(self.reps)


def conjugacy_classes(
    elements: Iterable[SignedPerm],
    conjugations: Sequence[Callable[[SignedPerm], SignedPerm]],
) -> list[tuple[SignedPerm, frozenset[SignedPerm]]]:
    """Orbits of ``elements`` under conjugation, one map x -> g x g^-1 per
    generator g, each as (its ``canonical_key``-least member, the orbit), in
    the order of those members: the walk takes the elements in that order
    and starts an orbit at each one no earlier orbit holds.

    Each generator of a finite group has finite order, so g^-1 is a power
    of g and the orbits under the maps are the orbits under the group they
    generate: no inverse is taken, and the group is never expanded.  A
    conjugate outside ``elements`` raises ``ValueError``.
    """
    todo = sorted(set(elements), key=canonical_key)
    member = set(todo)

    def conjugates(y: SignedPerm) -> list[SignedPerm]:
        images = [conjugate(y) for conjugate in conjugations]
        if not member.issuperset(images):
            raise ValueError("conjugation leaves the supplied element set")
        return images

    seen: set[SignedPerm] = set()
    classes = []
    for x in todo:
        if x not in seen:
            orbit = closure([x], conjugates)
            seen |= orbit
            classes.append((x, orbit))
    return classes
