"""Twisted involutions, the monoid action on them, and torus-class values.

A twist context packages a Weyl group W, a conjugation element t (a signed
permutation, not necessarily inside W) and a base element b of W.  The raw
twist is w -> t w t^-1; the effective twist theta(w) = b^-1 t w t^-1 b must
send simple reflections to simple reflections (checked on construction).
The twisted involutions are {w in W : theta(w) w = e}, equivalently the
solutions of (t w t^-1) b w = b, and so, left multiplying by t^-1, of
w u w = u for u = t^-1 b, which ``is_twisted_involution`` tests image by
image.

On that set the monoid generated by the simple reflections acts by

    s * a = a              if l(s a) < l(a), that is, a^-1(alpha_s) < 0,
    s * a = s a            if s a theta(s) == a,
    s * a = s a theta(s)   otherwise,

and the set is the closure of e under this action (Richardson-Springer,
Hultman).  A move adds 1 to the length in the second case and 2 in the
third.  The twist of each simple reflection is computed once per context,
as the index of the simple root that its simple root maps to.

A move forms no product.  Two index scans find the signed positions x, y
of alpha_s's coordinates in a's one-line form, so a^-1(alpha_s) is read
off their signs; s a differs from a only at |x| and |y|, and s a theta(s)
from s a only at theta(s)'s two coordinates.  The middle case holds
exactly when a^-1 s a = theta(s), that is, when a^-1(alpha_s) =
+-alpha_theta(s), which compares x and y with theta(s)'s root.  So a move
edits at most four entries of a, and its kind gives the length.  A move
gives its target's images as a plain tuple, and the sweep builds a
``SignedPerm`` only for a target it has not found before: each twisted
involution is built once, and every move, level and length entry shares
that one object.

A context computes the closure of e once, as a sweep by length: level L
holds the twisted involutions of length L, and a level is swept only after
every shorter one.  s is a descent of b (s * b = b) exactly when some
shorter a != b has s * a = b (Richardson-Springer, Geom. Dedicata 35 (1990);
Hultman, Trans. AMS 359 (2007)).  Every such a lies on an earlier level, so
by the time b's level is swept, the moves into b have marked all of b's
descents, and only the other simple reflections, its ascents, are tried.
The sweep records every move that changes an element, the length of every
element and the levels; ``twisted_involutions``, ``involution_lengths``,
``involution_levels``, ``image_set`` and ``ReachabilityGraph.build`` all
read it.  The moves come with source lengths that never decrease, so the
monoid image I' of an element is one pass over them in reverse: a move
into the image puts its source in the image, and read backwards, every
move out of b comes before every move into b.

The Springer value of a parameter (c, w) is (t w t^-1)^-1 c w b =
t w^-1 (t^-1 c) w b: ``springer_value`` reads each of its images off w and
through lookups of t, w^-1 and t^-1 c, the last formed once per c, with no
product in between.  A context keeps the values found so far, by their
images: each value is built and checked once and then shared by every
parameter that has it, and a value that fails the check is never kept.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .weyl import (
    SUBGROUP_CAP,
    SignedPerm,
    SubgroupTooLarge,
    WeylGroup,
    _signed_perm,
    canonical_key,
)

Move = tuple[SignedPerm, int, SignedPerm]
#: What a move by one simple reflection s reads and edits, see ``_star``.
StarRow = tuple[int, int, int, int, int, int, int, int, int, int]

__all__ = [
    "TwistContext",
    "ReachabilityGraph",
    "twisted_involutions",
    "involution_lengths",
    "involution_levels",
    "is_twisted_involution",
    "image_set",
    "springer_value",
]


class TwistContext:
    """Group with a conjugation twist and a base translation element,
    compared and hashed by identity."""

    def __init__(self, group: WeylGroup, twist: SignedPerm, base: SignedPerm) -> None:
        self.group = group
        self.twist = twist
        self.base = base
        self._twist_inverse = twist.inverse()
        #: t^-1 c as a lookup, for each torus class element c asked for.
        self._class_lookups: dict[SignedPerm, tuple[int, ...]] = {}
        #: Each Springer value built so far, by its images.
        self._springer_values: dict[SignedPerm, SignedPerm] = {}
        if not group.contains(base):
            raise ValueError("base element must lie in the group")
        if not (self.theta_raw(base) * base).is_identity():
            raise ValueError("twist of the base times the base must be e")
        self._simple_theta = self._theta_on_simples()

    def theta_raw(self, w: SignedPerm) -> SignedPerm:
        """``t * w * t^-1``."""
        return self.twist * w * self._twist_inverse

    @cached_property
    def _twist_lookup(self) -> tuple[int, ...]:
        return _lookup(self.twist)

    @cached_property
    def _untwisted_base(self) -> tuple[tuple[int, ...], list[int]]:
        """u = t^-1 b, as a lookup and as its list of images."""
        u = self._twist_inverse * self.base
        return _lookup(u), list(u)

    def _theta_on_simples(self) -> tuple[int, ...]:
        """The index of theta(s) for each simple reflection s, in order;
        raises unless theta permutes the simple reflections.  theta is
        conjugation by g = b^-1 t, so theta(s) is the reflection in the root
        g(alpha_s), looked up among the simple roots."""
        terms = self.group._simple_terms
        index = {term: k for k, term in enumerate(terms)}
        g = self.base.inverse() * self.twist
        out = []
        for i, ci, j, cj in terms:
            # g(c e_k) = c * sign(g_k) e_|g_k|; order the coordinates and
            # take the root with leading coefficient +1.
            (a, ca), (b, cb) = sorted(
                (abs(g[k]) - 1, c if g[k] > 0 else -c) for k, c in ((i, ci), (j, cj))
            )
            image = index.get((a, 1, b, ca * cb))
            if image is None:
                raise ValueError(
                    "effective twist does not permute the simple reflections"
                )
            out.append(image)
        return tuple(out)

    @cached_property
    def _star_rows(self) -> tuple[StarRow, ...]:
        """A ``_star`` row for each simple reflection s, in order, read off
        the roots: alpha_s = e_k + c e_l (k == l for e_k), with
        s(e_k) = -c e_l and s(e_l) = -c e_k; alpha_theta(s) = e_p + d e_q,
        with theta(s)(e_p) = -d e_q and theta(s)(e_q) = -d e_p.  Signed
        coordinates stand for signed unit vectors, as in a one-line form."""
        terms = self.group._simple_terms
        rows = []
        for (i, _, j, c), t in zip(terms, self._simple_theta):
            p, _, q, d = terms[t]
            k, l, p, q = i + 1, j + 1, p + 1, q + 1
            rows.append((k, l, c, -c * l, -c * k, p, q, d, -d * q, -d * p))
        return tuple(rows)

    @cached_property
    def _sweep(
        self,
    ) -> tuple[
        frozenset[SignedPerm],
        tuple[Move, ...],
        dict[SignedPerm, int],
        list[list[SignedPerm]],
    ]:
        """The twisted involutions, as the closure of e under the monoid
        action; every move (a, idx, s_idx * a) that changes an element,
        simples numbered from 1, each source's moves in that order; the
        length of every element, carried by move kind; and the elements
        by length, each level in the order found.

        The sweep runs level by level.  A move (a, idx, b) sets bit idx of
        b's descent mask, and every move into b comes from a shorter
        element, so b's mask is complete when b's level is reached and
        ``_star`` is called only for b's ascents.  ``_star`` gives a
        target's images as a plain tuple, looked up among the elements
        found so far: only a new target is built as a ``SignedPerm``, and
        every move, level and length entry shares that one object."""
        self.group.check_enumerable()
        one = self.group.identity()
        moves: list[Move] = []
        lengths = {one: 0}
        # Each element found, by its images: [the element, its descent mask].
        found = {one: [one, 0]}
        levels: list[list[SignedPerm]] = [[one]]
        rows = tuple((idx, 1 << idx, row) for idx, row in enumerate(self._star_rows, 1))
        star, record, build, cap = _star, moves.append, _signed_perm, SUBGROUP_CAP
        for length, level in enumerate(levels):  # levels grows as it is swept
            for a in level:
                mask = found[a][1]
                for idx, bit, row in rows:
                    if mask & bit:
                        continue
                    images, gain = star(row, a)
                    if gain:
                        entry = found.get(images)
                        if entry is not None:
                            entry[1] |= bit
                            record((a, idx, entry[0]))
                            continue
                        b = build(images)
                        found[b] = [b, bit]
                        record((a, idx, b))
                        lengths[b] = length + gain
                        while len(levels) <= length + gain:
                            levels.append([])
                        levels[length + gain].append(b)
                        if len(lengths) > cap:
                            raise SubgroupTooLarge(f"closure exceeds cap {cap}")
        return frozenset(lengths), tuple(moves), lengths, levels


def _star(row: StarRow, a: SignedPerm) -> tuple[tuple[int, ...], int]:
    """s * a for the simple reflection s of ``row``, with l(s * a) - l(a):
    (a, 0) when a^-1(alpha_s) < 0, (s a, 1) when a^-1(alpha_s) =
    +-alpha_theta(s), else (s a theta(s), 2).  A moved element comes as
    its images in a plain tuple; the caller builds or finds the element."""
    k, l, c, sk, sl, p, q, d, tp, tq = row
    # a^-1(e_k) = sign(x) e_|x| for the signed position x of +-k in a.
    x = a.index(k) + 1 if k in a else -a.index(-k) - 1
    y = a.index(l) + 1 if l in a else -a.index(-l) - 1
    X, Y = abs(x), abs(y)
    # a^-1(alpha_s) = sign(x) e_X + c sign(y) e_Y has the sign of its term
    # at the smaller coordinate.
    if (x if X <= Y else c * y) < 0:
        return a, 0
    b = list(a)
    b[X - 1] = sk if x > 0 else -sk
    b[Y - 1] = sl if y > 0 else -sl
    # s a theta(s) = a exactly when a^-1 s a = theta(s), that is, when
    # a^-1(alpha_s) = +-(e_p + d e_q): same coordinates, same ratio.
    same_sign = (x > 0) == (y > 0)
    if (X == p and Y == q or X == q and Y == p) and same_sign == (c == d):
        return tuple(b), 1
    # (s a theta(s))(e_p) = s a(theta(s)(e_p)), and likewise at q.
    b[p - 1], b[q - 1] = (
        b[tp - 1] if tp > 0 else -b[-tp - 1],
        b[tq - 1] if tq > 0 else -b[-tq - 1],
    )
    return tuple(b), 2


def _lookup(w: SignedPerm) -> tuple[int, ...]:
    """w by signed coordinate: ``_lookup(w)[x]`` is w(x) for x in +-1..rank,
    since w(-x) = -w(x) sits at index -x from the end."""
    return (0, *w, *[-v for v in reversed(w)])


def is_twisted_involution(ctx: TwistContext, w: SignedPerm) -> bool:
    """Whether w lies in W with theta(w) w = e, tested as w u w = u for
    u = t^-1 b: theta(w) w = e reads t w t^-1 b w = b, and left
    multiplication by t^-1 turns that into w u w = u."""
    if not ctx.group.contains(w):
        return False
    u, images = ctx._untwisted_base
    # (w u w)(j) = w(y) for y = u(w(j)), and w(-y) = -w(y).
    return [w[y - 1] if (y := u[x]) > 0 else -w[-y - 1] for x in w] == images


def twisted_involutions(ctx: TwistContext) -> frozenset[SignedPerm]:
    return ctx._sweep[0]


def involution_lengths(ctx: TwistContext) -> dict[SignedPerm, int]:
    """The length of every twisted involution, as the sweep carried it."""
    return ctx._sweep[2]


def involution_levels(ctx: TwistContext) -> list[list[SignedPerm]]:
    """The twisted involutions by length: entry L holds those of length L,
    in the order the sweep found them; an entry may be empty."""
    return ctx._sweep[3]


def image_set(ctx: TwistContext, top: SignedPerm) -> frozenset[SignedPerm]:
    """Twisted involutions from which the monoid action reaches ``top``.

    One pass over the sweep's moves in reverse, adding a whenever a move
    (a, s, b) leads into the image.  Every move into b comes from a shorter
    element, and the sweep records b's own moves after all of those, so
    b's membership is final before any move into b is read.
    """
    if top not in twisted_involutions(ctx):
        raise ValueError("top element is not a twisted involution")
    image = {top}
    for a, _, b in reversed(ctx._sweep[1]):
        if b in image:
            image.add(a)
    return frozenset(image)


def springer_value(
    ctx: TwistContext, torus_element: SignedPerm, w: SignedPerm
) -> SignedPerm:
    """Twisted-involution value attached to a parameter (torus_element, w).

    The value is (t w t^-1)^-1 * c * w * b = t * w^-1 * (t^-1 c) * w * b
    for conjugation twist t, torus class element c and base b.  Each image
    v(j) = t(w^-1(d(w(b(j))))), with d = t^-1 c formed once per c, is read
    through lookups of t, w^-1 and d and straight off w's images, with no
    product in between.  The value is always a twisted involution for the
    context, checked by ``is_twisted_involution`` as v u v = u for u = t^-1 b.
    Each value is built and checked once per context: the images are looked
    up among the values found so far, and one seen before comes back as the
    same object.  A value that fails the check is never stored.
    """
    d = ctx._class_lookups.get(torus_element)
    if d is None:
        d = ctx._class_lookups[torus_element] = _lookup(
            ctx._twist_inverse * torus_element
        )
    t, back = ctx._twist_lookup, [0] * (2 * len(w) + 1)
    for j, x in enumerate(w, start=1):  # w(j) = x, so w^-1(x) = j
        back[x], back[-x] = j, -j
    images = tuple(
        [t[back[d[w[x - 1] if x > 0 else -w[-x - 1]]]] for x in ctx.base]
    )
    value = ctx._springer_values.get(images)
    if value is None:
        value = _signed_perm(images)
        if not is_twisted_involution(ctx, value):
            raise ValueError(f"value {value} is not a twisted involution")
        ctx._springer_values[value] = value
    return value


class ReachabilityGraph(NamedTuple):
    """Monoid move graph on the twisted involutions of a context."""

    context: TwistContext
    nodes: tuple[SignedPerm, ...]
    edges: tuple[Move, ...]

    @staticmethod
    def build(ctx: TwistContext) -> "ReachabilityGraph":
        nodes = sorted(twisted_involutions(ctx), key=canonical_key)
        position = {a: i for i, a in enumerate(nodes)}
        # The sweep lists each source's moves together, in simple-reflection
        # order, so a stable sort by source keeps (position, idx) order.
        edges = sorted(ctx._sweep[1], key=lambda e: position[e[0]])
        return ReachabilityGraph(ctx, tuple(nodes), tuple(edges))

    def to_dot(self) -> str:
        lines = ["digraph twisted {", "  rankdir=BT;"]
        lengths = involution_lengths(self.context)
        ident = {a: ",".join(map(str, a)) for a in self.nodes}
        for a in self.nodes:
            lines.append(f'  "{ident[a]}" [label="{a.cycle_string()} ({lengths[a]})"];')
        for a, idx, b in self.edges:
            lines.append(f'  "{ident[a]}" -> "{ident[b]}" [label="s{idx}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
