"""Brute-force reference implementations used only by the test suite.

Everything here is deliberately naive — full enumeration, pairwise membership
tests, no caching — and shares nothing with the package beyond the
``SignedPerm`` value type and its composition and the Gaussian-dyadic value
types.  When a fast routine and its
oracle agree on an instance, that agreement is evidence, not tautology.

The five routes at the end, ``rational_parameters``, ``reachable_set``,
``closure_sweep``, ``reverse_closure_image`` and
``all_lines_torus_classes``, do read the package: its coset table, its
monoid move (through ``monoid_star``, which names a move by its simple
reflection, or straight from the move table), the sweep's moves, its
generic closure, and its Psi0, restricted lines, involutions and orbit
routine.  Each is independent of what it checks -- the Galois action's
fixed points, the one reverse pass behind ``image_set`` (checked both by
forward closures and by a reverse index), the sweep by length that tries
only ascents, and the conjugation by the simple lines only, through one
image table per line -- not of the package.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from korbits.catalog import GroupSpec, coset_table
from korbits.dyadic import Dyadic, DyadicGauss, ExactMatrix, NotAUnit, placed
from korbits.tori import _involutions, root_lines
from korbits.twisted import Move, TwistContext, _star
from korbits.weyl import (
    SignedPerm,
    _reflection,
    canonical_key,
    closure,
    conjugacy_classes,
    identity,
)


class RuleEscapesDomain(ValueError):
    """A Galois rule mapped a domain element outside the domain."""


def all_elements(kind: str, rank: int) -> frozenset[SignedPerm]:
    """Enumerate a classical group directly from itertools primitives.

    kind "A": permutations; "B": signed permutations; "D": signed
    permutations with an even number of sign flips; "AxA": rank = 2r with
    each block permuted separately.
    """
    if kind == "A":
        return frozenset(
            SignedPerm(p) for p in itertools.permutations(range(1, rank + 1))
        )
    if kind in ("B", "D"):
        out = []
        for p in itertools.permutations(range(1, rank + 1)):
            for signs in itertools.product((1, -1), repeat=rank):
                if kind == "D" and signs.count(-1) % 2:
                    continue
                out.append(SignedPerm(tuple(s * v for s, v in zip(signs, p))))
        return frozenset(out)
    if kind == "AxA":
        if rank % 2:
            raise ValueError("AxA rank must be even")
        r = rank // 2
        out = []
        for left in itertools.permutations(range(1, r + 1)):
            for right in itertools.permutations(range(r + 1, rank + 1)):
                out.append(SignedPerm(left + right))
        return frozenset(out)
    raise ValueError(f"unknown kind {kind!r}")


def naive_contains(kind: str, rank: int, w: SignedPerm) -> bool:
    """Membership read from the kinds of ``all_elements``: the rank, the
    sign changes allowed (none in A and AxA, an even number in D), and for
    AxA each half of the coordinates kept to itself, image by image."""
    flips = sum(v < 0 for v in w.images)
    if len(w) != rank or (kind in ("A", "AxA") and flips) or (kind == "D" and flips % 2):
        return False
    half = rank // 2
    return kind != "AxA" or all(
        (abs(v) <= half) == (k < half) for k, v in enumerate(w.images)
    )


def naive_cycle_string(w: SignedPerm) -> str:
    """Disjoint-cycle notation from the underlying permutation, each cycle
    from its least coordinate; "e" when none moves; sign flips appended as
    a +/- vector."""
    perm = tuple(abs(v) for v in w.images)
    seen = [False] * len(perm)
    cycles = []
    for start in range(1, len(perm) + 1):
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
    if any(v < 0 for v in w.images):
        marks = "".join("+" if v > 0 else "-" for v in w.images)
        return f"{body}[{marks}]"
    return body


def naive_canonical_key(w: SignedPerm) -> tuple:
    """The canonical order written out as two tuples: the sign pattern (0
    for a positive image, 1 for a negative one), then the absolute
    one-line images."""
    return (
        tuple(0 if v > 0 else 1 for v in w.images),
        tuple(abs(v) for v in w.images),
    )


def naive_cosets(
    subgroup: Iterable[SignedPerm], group: Iterable[SignedPerm]
) -> frozenset[frozenset[SignedPerm]]:
    """Right cosets as the partition of x ~ y iff x·y⁻¹ ∈ subgroup."""
    sub = frozenset(subgroup)
    pool = set(group)
    if not sub <= pool:
        raise ValueError("subgroup not contained in group")
    blocks = []
    while pool:
        x = pool.pop()
        block = {y for y in pool if x * y.inverse() in sub} | {x}
        pool -= block
        blocks.append(frozenset(block))
    return frozenset(blocks)


def naive_twisted(
    group: Iterable[SignedPerm], twist: SignedPerm, base: SignedPerm
) -> frozenset[SignedPerm]:
    """Filter the full group by θ(w)·w_θ·w = w_θ with θ = conjugation by twist."""
    tinv = twist.inverse()
    return frozenset(
        w for w in group if (twist * w * tinv) * base * w == base
    )


def naive_galois_orbits(
    domain: Iterable[SignedPerm], rule: Callable[[SignedPerm], SignedPerm]
) -> frozenset[frozenset[SignedPerm]]:
    """Orbits of the cyclic group generated by ``rule`` on ``domain``."""
    pool = set(domain)
    members = frozenset(pool)
    orbits = []
    while pool:
        x = pool.pop()
        orbit = {x}
        y = rule(x)
        while y not in orbit:
            if y not in members:
                raise RuleEscapesDomain(f"rule left the domain at {y!r}")
            orbit.add(y)
            pool.discard(y)
            y = rule(y)
        orbits.append(frozenset(orbit))
    return frozenset(orbits)


def naive_conjugacy(
    elements: Iterable[SignedPerm], conjugators: Iterable[SignedPerm]
) -> frozenset[frozenset[SignedPerm]]:
    """Orbits of x ↦ t·x·t⁻¹ over all conjugators, by direct expansion."""
    pool = set(elements)
    conj = list(conjugators)
    classes = []
    while pool:
        seed = pool.pop()
        orbit = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for t in conj:
                y = t * x * t.inverse()
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        pool -= orbit
        classes.append(frozenset(orbit))
    return frozenset(classes)


def naive_subgroup(generators: Iterable[SignedPerm], rank: int) -> frozenset[SignedPerm]:
    """Subgroup closure by repeated pairwise multiplication to a fixed point."""
    current = {SignedPerm(tuple(range(1, rank + 1)))} | set(generators)
    while True:
        nxt = set(current)
        for a in current:
            for b in current:
                nxt.add(a * b)
        if nxt == current:
            return frozenset(current)
        current = nxt


def _roots(kind: str, rank: int) -> frozenset[tuple[int, ...]]:
    """All roots of a classical group, written out from their definition.

    "A": e_i - e_j; "B": +-e_i +- e_j and +-e_i; "D": +-e_i +- e_j; "AxA":
    e_i - e_j with i and j in the same half of the coordinates.
    """
    def unit(i: int) -> list[int]:
        return [int(k == i) for k in range(rank)]

    out = set()
    for i, j in itertools.permutations(range(rank), 2):
        if kind == "AxA" and (i < rank // 2) != (j < rank // 2):
            continue
        out.add(tuple(a - b for a, b in zip(unit(i), unit(j))))
        if kind in ("B", "D"):
            for s in (1, -1):
                out.add(tuple(s * (a + b) for a, b in zip(unit(i), unit(j))))
    if kind == "B":
        for i in range(rank):
            out |= {tuple(unit(i)), tuple(-c for c in unit(i))}
    return frozenset(out)


def naive_length(kind: str, rank: int, w: SignedPerm) -> int:
    """Coxeter length by root counting: the positive roots (leading nonzero
    coordinate positive) that w sends to negative roots, each root vector
    moved coordinate by coordinate."""
    roots = _roots(kind, rank)
    positive = {r for r in roots if next(c for c in r if c) > 0}
    count = 0
    for r in positive:
        image = [0] * rank
        for j, v in enumerate(w.images):
            image[abs(v) - 1] = r[j] if v > 0 else -r[j]
        if tuple(image) not in positive:
            count += 1
    return count


def naive_monoid_star(
    length: Callable[[SignedPerm], int],
    s: SignedPerm,
    theta_s: SignedPerm,
    a: SignedPerm,
) -> SignedPerm:
    """The monoid action by comparing lengths: s a theta(s) if that differs
    from a and is longer, s a if s a theta(s) == a and s a is longer, else a."""
    sa = s * a
    sas = sa * theta_s
    if sas == a:
        return sa if length(sa) > length(a) else a
    return sas if length(sas) > length(a) else a


def naive_springer_value(
    ctx: TwistContext, torus_element: SignedPerm, w: SignedPerm
) -> SignedPerm:
    """The Springer value (t w t⁻¹)⁻¹·c·w·b by five products and an inverse,
    checked as θ(v)·v = e with θ(v) = b⁻¹·t·v·t⁻¹·b and membership read
    from the group's kind."""
    t, b = ctx.twist, ctx.base
    t_inv, b_inv = t.inverse(), b.inverse()
    value = (t * w * t_inv).inverse() * torus_element * w * b
    if not (
        naive_contains(ctx.group.kind, ctx.group.rank, value)
        and (b_inv * (t * value * t_inv) * b * value).is_identity()
    ):
        raise ValueError(f"value {value} is not a twisted involution")
    return value


def naive_theta(ctx: TwistContext, w: SignedPerm) -> SignedPerm:
    """The effective twist θ(w) = b⁻¹·t·w·t⁻¹·b by four products and two
    inverses."""
    t, b = ctx.twist, ctx.base
    return b.inverse() * t * w * t.inverse() * b


def _symplectic_j(n: int) -> ExactMatrix:
    """The dense symplectic form of rank 2n: (0 1; -1 0) on each pair."""
    blk = ExactMatrix.from_rows([[0, 1], [-1, 0]])
    return placed(2 * n, [((2 * j - 1, 2 * j), blk) for j in range(1, n + 1)])


def naive_theta_matrix(spec: GroupSpec, m: ExactMatrix) -> ExactMatrix:
    """The group involution on matrices, family by family, by dense products
    with J, the signature and the block swap, and dense inverses."""
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
    raise ValueError(f"no matrix involution for family {fam}")


def naive_galois_matrix(spec: GroupSpec, m: ExactMatrix) -> ExactMatrix:
    """The Galois conjugation on matrices, family by family, dense."""
    fam = spec.family
    if fam == "Ustar":
        j = _symplectic_j(spec.params[0])
        return j * m.conjugate() * j.inverse()
    if fam == "Upq":
        p, qq = spec.params
        j = ExactMatrix.diagonal([1] * p + [-1] * qq)
        return j * m.conjugate().transpose().inverse() * j
    return m.conjugate()


def _matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _reflection_matrix(beta: Sequence) -> list[list[Fraction]]:
    """s_beta = I - 2 beta beta^T / |beta|^2 over the rationals."""
    n = len(beta)
    norm = sum(Fraction(x) * x for x in beta)
    return [
        [
            Fraction(int(i == j)) - 2 * Fraction(beta[i]) * beta[j] / norm
            for j in range(n)
        ]
        for i in range(n)
    ]


def perm_matrix(w: SignedPerm) -> list[list[int]]:
    """The dense matrix of w: column j holds sign(w(j)) in row |w(j)|."""
    n = len(w.images)
    m = [[0] * n for _ in range(n)]
    for j, v in enumerate(w.images):
        m[abs(v) - 1][j] = 1 if v > 0 else -1
    return m


def _matrix_perm(m: Sequence[Sequence]) -> SignedPerm:
    """The signed permutation with matrix m; ValueError if m is not one."""
    images = []
    for j in range(len(m)):
        nz = [(i, m[i][j]) for i in range(len(m)) if m[i][j] != 0]
        if len(nz) != 1 or abs(nz[0][1]) != 1:
            raise ValueError("matrix is not a signed permutation")
        images.append((nz[0][0] + 1) * int(nz[0][1]))
    return SignedPerm(tuple(images))


def _rank(rows: list[list[Fraction]]) -> int:
    m = [row[:] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def naive_torus_classes(
    kind: str, rank: int, rows: Sequence[Sequence[int]]
) -> frozenset[tuple[frozenset[SignedPerm], int]]:
    """Torus classes of the lattice involution ``rows`` on a group's roots.

    Psi0 = roots sent to their negatives; W(Psi0) is the pairwise-product
    closure of their reflections; its involutions are split into orbits
    under s w s for s = I - 2 beta beta^T / |beta|^2 over every restricted
    root beta = (alpha - theta alpha)/2, each conjugate a rational triple
    product.  Returns each orbit with the dimension of the fixed space of
    its members on the (-1)-eigenspace of ``rows``.
    """
    theta = [[Fraction(x) for x in row] for row in rows]

    def apply(v: Sequence) -> list:
        return [sum(theta[i][j] * v[j] for j in range(rank)) for i in range(rank)]

    roots = _roots(kind, rank)
    psi0 = [a for a in roots if apply(a) == [-c for c in a]]
    group = naive_subgroup(
        [_matrix_perm(_reflection_matrix(a)) for a in psi0], rank
    )
    # one matrix per reflection: beta, -beta and 2*beta give the same one
    conj_mats = {
        tuple(map(tuple, _reflection_matrix(beta)))
        for a in roots
        if any(beta := [(x - y) / 2 for x, y in zip(a, apply(a))])
    }

    def conjugates(w: SignedPerm) -> set[SignedPerm]:
        out = set()
        for r in conj_mats:
            prod = _matmul(_matmul(r, perm_matrix(w)), r)
            if any(x.denominator != 1 for row in prod for x in row):
                raise ValueError("reflection does not normalize the subsystem")
            y = _matrix_perm(prod)
            if y not in group:
                raise ValueError("conjugate leaves the reflection subgroup")
            out.add(y)
        return out

    pool = {w for w in group if (w * w).is_identity()}
    classes = []
    while pool:
        orbit = {pool.pop()}
        frontier = list(orbit)
        while frontier:
            for y in conjugates(frontier.pop()):
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        pool -= orbit
        w = next(iter(orbit))
        stacked = [
            [theta[i][j] + int(i == j) for j in range(rank)] for i in range(rank)
        ] + [
            [Fraction(m - int(i == j)) for j, m in enumerate(row)]
            for i, row in enumerate(perm_matrix(w))
        ]
        classes.append((frozenset(orbit), rank - _rank(stacked)))
    return frozenset(classes)


# -- exact matrices over complex rationals ----------------------------------


def primitive_line(v: Sequence) -> tuple[int, ...]:
    """The primitive integer vector on the line of v (rational entries),
    with its first nonzero entry positive."""
    q = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in q))
    ints = [int(x * den) for x in q]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def root_reflection(alpha: Sequence) -> SignedPerm:
    """The reflection in the vector alpha, as a signed permutation from its
    rational matrix; ValueError if that matrix is not one."""
    return _matrix_perm(_reflection_matrix(alpha))


def all_roots(theta) -> tuple[tuple[int, ...], ...]:
    """Every root of the lattice's group, as a rank-length vector."""
    return tuple(sorted(_roots(theta.group.kind, theta.rank)))


def apply(theta, v: Sequence) -> tuple:
    """The product of the lattice's rows with the vector v, summed column by
    column over the nonzero entries of v."""
    if len(v) != len(theta.rows):
        raise ValueError(f"vector length {len(v)} vs lattice rank {len(theta.rows)}")
    out = [0] * len(v)
    for j, x in enumerate(v):
        if x:
            for i, row in enumerate(theta.rows):
                out[i] += row[j] * x
    return tuple(out)


def psi0(theta) -> tuple[tuple[int, ...], ...]:
    """The roots alpha with theta(alpha) = -alpha."""
    return tuple(
        a for a in all_roots(theta) if apply(theta, a) == tuple(-c for c in a)
    )


def restricted_roots(theta) -> tuple[tuple[Fraction, ...], ...]:
    """The distinct nonzero projections (alpha - theta alpha)/2 of all roots
    onto the (-1)-eigenspace, non-reduced (beta and 2 beta can both occur)."""
    out = set()
    for a in all_roots(theta):
        beta = tuple(Fraction(x - y, 2) for x, y in zip(a, apply(theta, a)))
        if any(beta):
            out.add(beta)
    return tuple(sorted(out))


def _q(z: DyadicGauss) -> tuple[Fraction, Fraction]:
    return tuple(Fraction(c.num) * Fraction(2) ** c.exp for c in (z.re, z.im))


def _from_q(v: tuple[Fraction, Fraction]) -> DyadicGauss:
    """The Gaussian dyadic of two Fractions; ArithmeticError unless each
    denominator is a power of two."""
    parts = []
    for x in v:
        d = x.denominator
        if d & (d - 1):
            raise ArithmeticError(f"{x} is not a dyadic rational")
        parts.append(Dyadic(x.numerator, 1 - d.bit_length()))
    return DyadicGauss(*parts)


def _qmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _qdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def naive_det(m: ExactMatrix) -> DyadicGauss:
    """Determinant by Gaussian elimination over the complex rationals."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    a = [[_q(v) for v in row] for row in m.entries]
    det = (Fraction(1), Fraction(0))
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != (0, 0)), None)
        if pivot is None:
            return _from_q((Fraction(0), Fraction(0)))
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = (-det[0], -det[1])
        det = _qmul(det, a[col][col])
        inv = _qdiv((Fraction(1), Fraction(0)), a[col][col])
        for r in range(col + 1, n):
            f = _qmul(a[r][col], inv)
            for c in range(col, n):
                a[r][c] = _qsub(a[r][c], _qmul(f, a[col][c]))
    return _from_q(det)


def naive_inverse(m: ExactMatrix) -> ExactMatrix:
    """Inverse by Gauss-Jordan elimination over the complex rationals;
    NotAUnit unless the determinant is a unit of the Gaussian dyadics."""
    d = naive_det(m)
    if not d.is_unit():
        raise NotAUnit(f"determinant {d} is not a unit")
    n = m.nrows
    a = [[_q(v) for v in row] for row in m.entries]
    b = [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != (0, 0))
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = _qdiv((Fraction(1), Fraction(0)), a[col][col])
        a[col] = [_qmul(inv, v) for v in a[col]]
        b[col] = [_qmul(inv, v) for v in b[col]]
        for r in range(n):
            if r != col:
                f = a[r][col]
                a[r] = [_qsub(x, _qmul(f, y)) for x, y in zip(a[r], a[col])]
                b[r] = [_qsub(x, _qmul(f, y)) for x, y in zip(b[r], b[col])]
    return ExactMatrix.from_rows([[_from_q(v) for v in row] for row in b])


# -- independent routes through the package ----------------------------------


def rational_parameters(spec: GroupSpec, i: int) -> tuple[SignedPerm, ...]:
    """The membership route to the rational part of torus i: the coset
    representatives w with w·w0·w⁻¹ in the little Weyl group, membership
    read as canon(x) = e."""
    w0 = spec.group.longest_element()
    table = coset_table(spec, i)
    return tuple(
        rep for rep in table.reps if table.canon(rep * w0 * rep.inverse()).is_identity()
    )


def monoid_star(ctx: TwistContext, s: SignedPerm, a: SignedPerm) -> SignedPerm:
    """The package's monoid move s * a, named by the simple reflection s
    rather than by its row of the context's move table; the images the
    move gives are validated as a ``SignedPerm``."""
    simples = ctx.group.simple_reflections()
    if s not in simples:
        raise ValueError(f"{s} is not a simple reflection")
    return SignedPerm(_star(ctx._star_rows[simples.index(s)], a)[0])


def reachable_set(ctx: TwistContext, a: SignedPerm) -> frozenset[SignedPerm]:
    """All twisted involutions that repeated monoid moves reach from a: the
    forward closure that defines I′, one element at a time."""
    seen, todo = {a}, [a]
    while todo:
        x = todo.pop()
        for s in ctx.group.simple_reflections():
            y = monoid_star(ctx, s, x)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return frozenset(seen)


def closure_sweep(
    ctx: TwistContext,
) -> tuple[frozenset[SignedPerm], list[Move], dict[SignedPerm, int]]:
    """The twisted involutions as the generic closure of e, with every
    simple reflection tried on every element, descents included: the set,
    every move (a, idx, b) with b != a, simples numbered from 1, and the
    length of every element, carried by move kind."""
    one = ctx.group.identity()
    moves: list[Move] = []
    lengths = {one: 0}
    rows = tuple(enumerate(ctx._star_rows, start=1))

    def step(a: SignedPerm) -> list[SignedPerm]:
        out = []
        for idx, row in rows:
            images, gain = _star(row, a)
            if gain:
                b = SignedPerm(images)
                moves.append((a, idx, b))
                lengths[b] = lengths[a] + gain
                out.append(b)
        return out

    return closure([one], step), moves, lengths


def reverse_closure_image(
    ctx: TwistContext, top: SignedPerm
) -> frozenset[SignedPerm]:
    """The twisted involutions from which the monoid action reaches top, as
    the generic closure of top under the sweep's moves taken backwards,
    through an index of every element's sources."""
    reverse: defaultdict[SignedPerm, list[SignedPerm]] = defaultdict(list)
    for a, _, b in ctx._sweep[1]:
        reverse[b].append(a)
    return closure([top], reverse.__getitem__)


def all_lines_torus_classes(theta) -> list[tuple[SignedPerm, int, int]]:
    """Torus classes as (representative, class size, minus dimension), in
    the package's order, from conjugation by the reflection of every
    restricted-root line.  Each conjugate is formed root by root, with its
    own integer quotient 2(p.beta)/p.p and its own vector beta - k p; the
    checks that the line normalizes Psi0 run inside the walk."""
    rank = theta.rank
    psi, lines = root_lines(theta)
    involutions = _involutions(psi, rank)
    one = identity(rank)

    def conjugate(p: dict, w: SignedPerm) -> SignedPerm:
        conj = one
        for b in involutions[w]:
            i, ci, j, cj = psi[b]
            beta = {i: ci, j: cj}
            dot = sum(c * p.get(m, 0) for m, c in beta.items())
            k, r = divmod(2 * dot, sum(x * x for x in p.values()))
            if r:
                raise ValueError("reflection does not normalize the subsystem")
            image = sorted(
                (m, x)
                for m in beta.keys() | p.keys()
                if (x := beta.get(m, 0) - k * p.get(m, 0))
            )
            (i, ci), (j, cj) = image[0], image[-1]
            conj = _reflection((i, ci, j, cj), rank) * conj
        if conj not in involutions:
            raise ValueError("conjugate leaves the reflection subgroup")
        return conj

    minus = theta.minus_dimension
    classes = []
    for rep, orbit in conjugacy_classes(
        involutions, [lambda w, p=p: conjugate(p, w) for p in lines]
    ):
        trace = sum((v == j) - (v == -j) for j, v in enumerate(rep, start=1))
        classes.append((rep, len(orbit), minus + (trace - rank) // 2))
    classes.sort(key=lambda t: (-t[2], canonical_key(t[0])))
    return classes
