"""Twisted involutions, the monoid action on them, and torus-class values.

A twist context packages a Weyl group W, a conjugation element t (a signed
permutation, not necessarily inside W) and a base element b of W.  The raw
twist is w -> t w t^-1; the effective twist theta(w) = b^-1 t w t^-1 b must
send simple reflections to simple reflections (checked on construction).
The twisted involutions are {w in W : theta(w) w = e}, equivalently the
solutions of (t w t^-1) b w = b.

On that set the monoid generated by the simple reflections acts by

    s * a = a              if l(s a) < l(a), that is, a^-1(alpha_s) < 0,
    s * a = s a            if s a theta(s) == a,
    s * a = s a theta(s)   otherwise,

and the set is the closure of e under this action (Richardson-Springer,
Hultman).  A move adds 1 to the length in the second case and 2 in the
third, so one descent test decides each move and no length is counted.  A
context computes that closure once, recording every move that changes an
element and the length of every element by the kind of move that reached
it; ``twisted_involutions``, ``involution_lengths``, ``image_set`` and
``ReachabilityGraph.build`` all read this sweep.  The twist of each simple
reflection is computed once per context.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .weyl import SignedPerm, WeylGroup, canonical_key, closure

Move = tuple[SignedPerm, int, SignedPerm]

__all__ = [
    "TwistContext",
    "ReachabilityGraph",
    "twisted_involutions",
    "involution_lengths",
    "is_twisted_involution",
    "monoid_star",
    "reachable_set",
    "image_set",
    "springer_value",
]


@dataclass(frozen=True)
class TwistContext:
    """Group with a conjugation twist and a base translation element."""

    group: WeylGroup
    twist: SignedPerm
    base: SignedPerm

    def __post_init__(self) -> None:
        if not self.group.contains(self.base):
            raise ValueError("base element must lie in the group")
        if not (self.theta_raw(self.base) * self.base).is_identity():
            raise ValueError("twist of the base times the base must be e")
        if not set(self._simple_theta.values()) <= set(self._simple_theta):
            raise ValueError(
                "effective twist does not permute the simple reflections"
            )

    def theta_raw(self, w: SignedPerm) -> SignedPerm:
        """``t * w * t^-1``."""
        return self.twist * w * self._twist_inverse

    def theta(self, w: SignedPerm) -> SignedPerm:
        """Effective twist: conjugation followed by base translation."""
        return self._base_inverse * self.theta_raw(w) * self.base

    @cached_property
    def _twist_inverse(self) -> SignedPerm:
        return self.twist.inverse()

    @cached_property
    def _base_inverse(self) -> SignedPerm:
        return self.base.inverse()

    def simples(self) -> tuple[SignedPerm, ...]:
        return self._simples

    @cached_property
    def _simples(self) -> tuple[SignedPerm, ...]:
        return self.group.simple_reflections()

    @cached_property
    def _simple_theta(self) -> dict[SignedPerm, SignedPerm]:
        return {s: self.theta(s) for s in self.simples()}

    @cached_property
    def _sweep(
        self,
    ) -> tuple[frozenset[SignedPerm], tuple[Move, ...], dict[SignedPerm, int]]:
        """The twisted involutions, as the closure of e under the monoid
        action; every move (a, idx, s_idx * a) that changes an element,
        simples numbered from 1; and the length of every element, carried
        by move kind."""
        self.group.check_enumerable()
        one = self.group.identity()
        moves: list[Move] = []
        lengths = {one: 0}

        def step(a: SignedPerm) -> Iterator[SignedPerm]:
            for idx, (s, theta_s) in enumerate(self._simple_theta.items(), start=1):
                if (b := monoid_star(self, s, a)) != a:
                    moves.append((a, idx, b))
                    # b = s a when b theta(s) = a, else b = s a theta(s).
                    lengths[b] = lengths[a] + (1 if b * theta_s == a else 2)
                    yield b

        return closure([one], step), tuple(moves), lengths


def is_twisted_involution(ctx: TwistContext, w: SignedPerm) -> bool:
    return ctx.group.contains(w) and (ctx.theta(w) * w).is_identity()


def twisted_involutions(ctx: TwistContext) -> frozenset[SignedPerm]:
    return ctx._sweep[0]


def involution_lengths(ctx: TwistContext) -> dict[SignedPerm, int]:
    """The length of every twisted involution, as the sweep carried it."""
    return ctx._sweep[2]


def monoid_star(ctx: TwistContext, s: SignedPerm, a: SignedPerm) -> SignedPerm:
    """Monoid action of a simple reflection on a twisted involution."""
    theta_s = ctx._simple_theta.get(s)
    if theta_s is None:
        raise ValueError(f"{s} is not a simple reflection")
    if not ctx.group.is_left_ascent(s, a):
        return a
    sa = s * a
    sas = sa * theta_s
    return sa if sas == a else sas


def reachable_set(ctx: TwistContext, a: SignedPerm) -> frozenset[SignedPerm]:
    """All twisted involutions obtainable from a by repeated monoid moves."""
    return closure([a], lambda x: [monoid_star(ctx, s, x) for s in ctx.simples()])


def image_set(ctx: TwistContext, top: SignedPerm) -> frozenset[SignedPerm]:
    """Twisted involutions from which the monoid action reaches ``top``.

    Computed by one reverse closure over the full monoid move graph rather
    than one forward closure per element.
    """
    if top not in twisted_involutions(ctx):
        raise ValueError("top element is not a twisted involution")
    reverse: defaultdict[SignedPerm, list[SignedPerm]] = defaultdict(list)
    for a, _, b in ctx._sweep[1]:
        reverse[b].append(a)
    return closure([top], reverse.__getitem__)


def springer_value(
    ctx: TwistContext, torus_element: SignedPerm, w: SignedPerm
) -> SignedPerm:
    """Twisted-involution value attached to a parameter (torus_element, w).

    The value is (t w t^-1)^-1 * c * w * b for conjugation twist t, torus
    class element c and base b; it is always a twisted involution for the
    context (checked).
    """
    value = ctx.theta_raw(w).inverse() * torus_element * w * ctx.base
    if not is_twisted_involution(ctx, value):
        raise ValueError(f"value {value} is not a twisted involution")
    return value


@dataclass(frozen=True)
class ReachabilityGraph:
    """Monoid move graph on the twisted involutions of a context."""

    context: TwistContext
    nodes: tuple[SignedPerm, ...]
    edges: tuple[Move, ...]

    @staticmethod
    def build(ctx: TwistContext) -> "ReachabilityGraph":
        nodes = sorted(twisted_involutions(ctx), key=canonical_key)
        edges = sorted(ctx._sweep[1], key=lambda e: (canonical_key(e[0]), e[1]))
        return ReachabilityGraph(ctx, tuple(nodes), tuple(edges))

    def to_dot(self) -> str:
        lines = ["digraph twisted {", "  rankdir=BT;"]
        lengths = involution_lengths(self.context)
        for a in self.nodes:
            ident = ",".join(map(str, a))
            lines.append(f'  "{ident}" [label="{a.cycle_string()} ({lengths[a]})"];')
        for a, idx, b in self.edges:
            src = ",".join(map(str, a))
            dst = ",".join(map(str, b))
            lines.append(f'  "{src}" -> "{dst}" [label="s{idx}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
