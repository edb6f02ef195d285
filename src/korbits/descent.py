"""Galois descent on orbit parameters.

The orbit parameters of a family are computed over the quadratic extension
(the Gaussian dyadics).  Conjugation of the extension permutes them; a
parameter fixed by the conjugation yields an orbit defined over the base
ring, while a swapped pair contributes a single orbit defined only after
the extension.  This module builds the conjugation action on canonical
coset representatives from the per-torus rule recorded in the catalog
(one minimal image each, none when the rule fixes every coset), splits it
into fixed points and swapped pairs, and extends each of the
catalog's orbit parameters, in their order, with its field of definition
and its pair partner read off those pairs.  A torus without
little-Weyl-group data has no coset table, so ``galois_action`` raises the
catalog's ``MissingWkData`` for it.
``fixed_and_pairs`` checks that the action maps the representatives into
themselves and squares to the identity, so its fixed points and swapped
pairs cover them exactly.

Field tags: ``Z[1/2]`` for fixed parameters, ``Z[1/2,i]-pair`` for the two
members of a swapped pair.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .catalog import GroupSpec, coset_table, orbit_parameters
from .weyl import CosetTable, SignedPerm

__all__ = [
    "GaloisAction",
    "DescentRow",
    "DescentReport",
    "NotAnInvolution",
    "FIELD_FIXED",
    "FIELD_PAIR",
    "galois_action",
    "fixed_and_pairs",
    "descent_report",
]

FIELD_FIXED = "Z[1/2]"
FIELD_PAIR = "Z[1/2,i]-pair"


class NotAnInvolution(ValueError):
    """Raised when a conjugation action fails to square to the identity."""


class GaloisAction(NamedTuple):
    """A conjugation action on a finite parameter domain."""

    domain: tuple[SignedPerm, ...]
    mapping: dict[SignedPerm, SignedPerm]
    name: str = ""


def galois_action(spec: GroupSpec, i: int) -> GaloisAction:
    """Conjugation on the canonical coset representatives of torus i.

    The rule is assembled from the descriptor: an optional conjugation
    element, an optional left factor, an optional right factor (with none,
    the identity).  Raises ``MissingWkData`` for a torus without
    little-Weyl-group data, as ``coset_table`` does.  Images are reduced to
    canonical representatives by the coset table, so the returned mapping is
    a permutation of the representative list; none is formed when ``_rule``
    finds that the rule fixes every coset."""
    table = coset_table(spec, i)
    rule, reps = _rule(spec.descriptor(i), table), table.reps
    images = reps if rule is None else [table.canon(rule(r)) for r in reps]
    return GaloisAction(reps, dict(zip(reps, images)), f"{spec.name} torus {i}")


def _rule(desc, table: CosetTable | None = None) -> Callable | None:
    """The raw rule w -> left * (c w c^-1) * right of a descriptor, as
    w -> l * w * r with l = left * c and r = c^-1 * right, both formed once
    (an absent factor is the identity).  Given the coset table, an l in
    W_K (canon(l) is then e, the least element of W) is dropped, as W_K·l·w
    = W_K·w; if no factor is left, the rule fixes every coset: None."""
    left, right, conj = desc.galois_left, desc.galois_right, desc.galois_conj
    if conj is not None:
        inverse = conj.inverse()
        left = conj if left is None else left * conj
        right = inverse if right is None else inverse * right
    if table is not None and left is not None and table.group.contains(left):
        left = None if table.canon(left).is_identity() else left
    if table is not None and left is None and right is None:
        return None

    def apply(w: SignedPerm) -> SignedPerm:
        x = w if left is None else left * w
        return x if right is None else x * right

    return apply


def fixed_and_pairs(
    action: GaloisAction,
) -> tuple[tuple[SignedPerm, ...], tuple[tuple[SignedPerm, SignedPerm], ...]]:
    """Split a conjugation action into fixed points and swapped pairs."""
    name, domain = action.name or "action", set(action.domain)
    for w in action.domain:
        if action.mapping.get(w) not in domain:
            raise NotAnInvolution(f"{name} does not map {w} into its domain")
    for w in action.domain:
        if action.mapping[action.mapping[w]] != w:
            raise NotAnInvolution(f"{name} does not square to the identity at {w}")
    fixed: list[SignedPerm] = []
    pairs: list[tuple[SignedPerm, SignedPerm]] = []
    seen: set[SignedPerm] = set()
    for w in action.domain:
        img = action.mapping[w]
        if img == w:
            fixed.append(w)
        elif w not in seen:
            pairs.append((w, img))
            seen.add(w)
            seen.add(img)
    return tuple(fixed), tuple(pairs)


class DescentRow(NamedTuple):
    """``OrbitParam``'s five fields, then the field and the partner (None if fixed)."""

    torus_index: int
    rep: SignedPerm
    coset_size: int
    value: SignedPerm
    length: int
    field: str
    partner: SignedPerm | None


class DescentReport(NamedTuple):
    rows: tuple[DescentRow, ...]
    fixed_count: int
    pair_count: int


def descent_report(spec: GroupSpec) -> DescentReport:
    """Field of definition for every orbit parameter of the family, one row
    per parameter in ``orbit_parameters`` order."""
    params = orbit_parameters(spec)
    partner: dict[tuple[int, SignedPerm], SignedPerm] = {}
    fixed_total = pair_total = 0
    for desc in spec.tori:
        fixed, pairs = fixed_and_pairs(galois_action(spec, desc.index))
        fixed_total += len(fixed)
        pair_total += len(pairs)
        for a, b in pairs:
            partner[desc.index, a], partner[desc.index, b] = b, a
    rows = []
    for p in params:
        mate = partner.get((p.torus_index, p.rep))
        field = FIELD_FIXED if mate is None else FIELD_PAIR
        rows.append(DescentRow(*p, field, mate))
    return DescentReport(tuple(rows), fixed_total, pair_total)
