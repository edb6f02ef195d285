"""Shared scraps for the test suite: a build cache, literal constructors, the
oracle's elements of a group in canonical order, their partition by a
coset table, the conjugation maps of a generator list, and the comparison of
a lattice's root lines with the oracle's dense roots.

The literal constructors build expected values straight from image tuples so
that frozen expectations do not round-trip through the library's own helpers.
"""

from __future__ import annotations

import functools
from collections import defaultdict

from korbits.catalog import build
from korbits.tori import root_lines
from korbits.weyl import CosetTable, SignedPerm, WeylGroup
from oracle import (
    all_elements,
    naive_canonical_key,
    primitive_line,
    psi0,
    restricted_roots,
)


@functools.lru_cache(maxsize=None)
def cached_build(family: str, *params: int):
    return build(family, *params)


def perm(*images: int) -> SignedPerm:
    return SignedPerm(tuple(images))


def tr(i: int, j: int, rank: int) -> SignedPerm:
    """The transposition (i j), written out as a one-line image tuple."""
    images = list(range(1, rank + 1))
    images[i - 1], images[j - 1] = j, i
    return SignedPerm(tuple(images))


def flip(coords: tuple[int, ...], rank: int) -> SignedPerm:
    """Sign flips on the given coordinates, written out literally."""
    return SignedPerm(
        tuple(-v if v in coords else v for v in range(1, rank + 1))
    )


def sorted_elements(group: WeylGroup) -> tuple[SignedPerm, ...]:
    """The oracle's elements of ``group``, in canonical order, sorted by the
    oracle's own key."""
    return tuple(sorted(all_elements(group.kind, group.rank), key=naive_canonical_key))


def conjugations(gens) -> list:
    """One map x -> g x g^-1 per generator g, as ``conjugacy_classes`` takes
    them."""
    return [lambda x, g=g, h=g.inverse(): g * x * h for g in gens]


def canon_blocks(table: CosetTable, elements) -> frozenset[frozenset[SignedPerm]]:
    """``elements`` partitioned by their canonical coset representative."""
    blocks = defaultdict(set)
    for x in elements:
        blocks[table.canon(x)].add(x)
    return frozenset(map(frozenset, blocks.values()))


def assert_root_lines_match_dense(theta) -> None:
    """The Psi0 terms and restricted lines that ``root_lines`` reads from the
    signed permutation are the primitive lines of the oracle's dense Psi0 and
    restricted roots."""
    rank = theta.rank

    def dense(v):
        return tuple(v.get(k, 0) for k in range(rank))

    psi, lines = root_lines(theta)
    assert sorted(dense({i: ci, j: cj}) for i, ci, j, cj in psi) == sorted(
        set(map(primitive_line, psi0(theta)))
    )
    assert sorted(map(dense, lines)) == sorted(
        set(map(primitive_line, restricted_roots(theta)))
    )
