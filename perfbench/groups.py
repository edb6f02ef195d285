"""Signed permutations, Weyl groups and exact linear algebra, written apart
from korbits so that the benchmark can check the program's outputs.

A signed permutation is a tuple ``w`` with ``w[j-1] = s*k`` meaning that
e_j maps to s*e_k; ``mul(w, v)`` applies v first.  Nothing here imports
korbits.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

Perm = tuple[int, ...]

#: Weyl group of each catalog family: (kind, rank) from the parameters.
FAMILY_GROUP = {
    "GL": lambda n: ("A", n),
    "SL2n": lambda n: ("A", 2 * n),
    "Ustar": lambda n: ("A", 2 * n),
    "SOodd1": lambda n: ("D", n + 1),
    "SOeven1": lambda n: ("B", n),
    "Upq": lambda p, q: ("A", p + q),
    "Restriction": lambda r: ("AxA", 2 * r),
}


def group_of(family: str, params: tuple[int, ...]) -> tuple[str, int]:
    return FAMILY_GROUP[family](*params)


def mul(w: Perm, v: Perm) -> Perm:
    return tuple(w[x - 1] if x > 0 else -w[-x - 1] for x in v)


def inv(w: Perm) -> Perm:
    out = [0] * len(w)
    for j, x in enumerate(w, start=1):
        out[abs(x) - 1] = j if x > 0 else -j
    return tuple(out)


def ident(rank: int) -> Perm:
    return tuple(range(1, rank + 1))


def is_signed_perm(w: Perm, rank: int) -> bool:
    return len(w) == rank and sorted(abs(x) for x in w) == list(range(1, rank + 1))


def canonical_key(w: Perm) -> tuple:
    """Signs first (positive before negative), then the one-line word."""
    return tuple(0 if x > 0 else 1 for x in w), tuple(abs(x) for x in w)


def order(kind: str, rank: int) -> int:
    if kind == "A":
        return factorial(rank)
    if kind == "B":
        return 2**rank * factorial(rank)
    if kind == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return factorial(rank // 2) ** 2


def contains(kind: str, rank: int, w: Perm) -> bool:
    if not is_signed_perm(w, rank):
        return False
    negatives = sum(1 for x in w if x < 0)
    if kind == "B":
        return True
    if kind == "D":
        return negatives % 2 == 0
    if negatives:
        return False
    if kind == "A":
        return True
    half = rank // 2
    return all((w[j] <= half) == (j < half) for j in range(rank))


def elements(kind: str, rank: int):
    """Every element of the group, by direct construction."""
    if kind == "AxA":
        half = rank // 2
        for p in itertools.permutations(range(1, half + 1)):
            for q in itertools.permutations(range(half + 1, rank + 1)):
                yield p + q
        return
    for p in itertools.permutations(range(1, rank + 1)):
        if kind == "A":
            yield p
            continue
        for mask in itertools.product((1, -1), repeat=rank):
            if kind == "D" and mask.count(-1) % 2:
                continue
            yield tuple(s * x for s, x in zip(mask, p))


def _swap(i: int, j: int, rank: int, negate: bool = False) -> Perm:
    out = list(range(1, rank + 1))
    out[i - 1], out[j - 1] = (-j, -i) if negate else (j, i)
    return tuple(out)


def simple_reflections(kind: str, rank: int) -> tuple[Perm, ...]:
    """Simple reflections in the order s1, s2, ... used by the dot output."""
    if kind == "AxA":
        half = rank // 2
        return tuple(_swap(i, i + 1, rank) for i in range(1, half)) + tuple(
            _swap(half + i, half + i + 1, rank) for i in range(1, half)
        )
    simples = [_swap(i, i + 1, rank) for i in range(1, rank)]
    if kind == "B":
        flip = list(range(1, rank + 1))
        flip[-1] = -rank
        simples.append(tuple(flip))
    elif kind == "D" and rank >= 2:
        simples.append(_swap(rank - 1, rank, rank, negate=True))
    return tuple(simples)


@lru_cache(maxsize=None)
def positive_roots(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Positive roots: e_i - e_j (i < j), e_i + e_j (B, D), e_i (B); for
    AxA only the e_i - e_j inside each half."""
    roots = []
    half = rank // 2
    for i in range(rank):
        for j in range(i + 1, rank):
            if kind == "AxA" and (i < half) != (j < half):
                continue
            for sign in ((-1,) if kind in ("A", "AxA") else (-1, 1)):
                r = [0] * rank
                r[i], r[j] = 1, sign
                roots.append(tuple(r))
    if kind == "B":
        for i in range(rank):
            r = [0] * rank
            r[i] = 1
            roots.append(tuple(r))
    return tuple(roots)


def act(w: Perm, v) -> tuple:
    out = [0] * len(w)
    for j, x in enumerate(w):
        out[abs(x) - 1] = v[j] if x > 0 else -v[j]
    return tuple(out)


def _is_negative(v) -> bool:
    return next(x for x in v if x) < 0


def length(kind: str, rank: int, w: Perm) -> int:
    """Coxeter length: the number of positive roots sent to negative ones."""
    return sum(1 for a in positive_roots(kind, rank) if _is_negative(act(w, a)))


def closure(generators, rank: int, cap: int = 10**6) -> frozenset[Perm]:
    """The subgroup the generators generate (identity included)."""
    seen = {ident(rank)}
    frontier = [ident(rank)]
    gens = list(generators)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                x = mul(g, w)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        if len(seen) > cap:
            raise ValueError(f"closure exceeds {cap} elements")
        frontier = nxt
    return frozenset(seen)


def conjugation_orbit(x: Perm, generators) -> frozenset[Perm]:
    """{w^-1 x w : w in the group generated}, for involutive generators."""
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for s in generators:
                z = mul(mul(s, y), s)
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)


def is_twisted_involution(t: Perm, b: Perm, w: Perm) -> bool:
    """(t w t^-1) b w == b."""
    return mul(mul(mul(mul(t, w), inv(t)), b), w) == b


def springer_value(t: Perm, b: Perm, c: Perm, w: Perm) -> Perm:
    """(t w t^-1)^-1 c w b."""
    return mul(mul(mul(inv(mul(mul(t, w), inv(t))), c), w), b)


def springer_image(t: Perm, b: Perm, c: Perm, kind: str, rank: int) -> frozenset[Perm]:
    """Values of ``springer_value`` over the whole group W.

    value(w) = t (w^-1 u w) b with u = t^-1 c, so the set is t.(the
    W-conjugacy orbit of u).b, found without enumerating W.
    """
    u = mul(inv(t), c)
    orbit = conjugation_orbit(u, simple_reflections(kind, rank))
    return frozenset(mul(mul(t, y), b) for y in orbit)


def monoid_move(kind: str, rank: int, t: Perm, b: Perm, s: Perm, a: Perm) -> Perm:
    """s * a = s a theta(s) or s a when longer, else a; theta(s) = b^-1 t s t^-1 b."""
    theta_s = mul(mul(inv(b), mul(mul(t, s), inv(t))), b)
    sa = mul(s, a)
    sas = mul(sa, theta_s)
    la = length(kind, rank, a)
    if sas == a:
        return sa if length(kind, rank, sa) > la else a
    return sas if length(kind, rank, sas) > la else a


# -- closed forms -----------------------------------------------------------


def involutions_sym(n: int) -> int:
    """Involutions of S_n (OEIS A000085)."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b if n else 1


def involutions_hyperoctahedral(n: int) -> int:
    """Involutions of B_n (OEIS A000898)."""
    a, b = 1, 2
    if n == 0:
        return 1
    for k in range(2, n + 1):
        a, b = b, 2 * b + 2 * (k - 1) * a
    return b


def double_factorial_odd(n: int) -> int:
    """(2n-1)!!"""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def upq_clans(p: int, q: int) -> int:
    """sum_k n!/(k!(p-k)!(q-k)!2^k), the parameter count of U(p,q)."""
    n = p + q
    return sum(
        factorial(n) // (factorial(k) * factorial(p - k) * factorial(q - k) * 2**k)
        for k in range(min(p, q) + 1)
    )


def gl_torus_class_size(n: int, k: int) -> int:
    """n!/(k! 2^k (n-2k)!), involutions of S_n with k two-cycles."""
    return factorial(n) // (factorial(k) * 2**k * factorial(n - 2 * k))


def upq_torus_class_size(q: int, k: int) -> int:
    return comb(q, k)


# -- exact linear algebra ---------------------------------------------------

Gauss = tuple[Fraction, Fraction]


def gauss_det(rows: list[list[Gauss]]) -> Gauss:
    """Determinant over Q(i), by elimination on (re, im) pairs of Fractions."""
    a = [list(r) for r in rows]
    n = len(a)
    det = (Fraction(1), Fraction(0))

    def gmul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def gdiv(x, y):
        d = y[0] * y[0] + y[1] * y[1]
        return ((x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d)

    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != (0, 0)), None)
        if pivot is None:
            return (Fraction(0), Fraction(0))
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = (-det[0], -det[1])
        det = gmul(det, a[col][col])
        for r in range(col + 1, n):
            f = gdiv(a[r][col], a[col][col])
            for c in range(col, n):
                p = gmul(f, a[col][c])
                a[r][c] = (a[r][c][0] - p[0], a[r][c][1] - p[1])
    return det


def rational_rank(rows: list[list[int]]) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def perm_matrix(w: Perm) -> list[list[int]]:
    """Matrix with the sign of w(j) at row |w(j)|, column j."""
    n = len(w)
    m = [[0] * n for _ in range(n)]
    for j, x in enumerate(w):
        m[abs(x) - 1][j] = 1 if x > 0 else -1
    return m


def minus_fixed_dimension(lattice: list[list[int]], w: Perm) -> int:
    """dim {v : M v = -v and w v = v} for the lattice involution M."""
    n = len(w)
    wm = perm_matrix(w)
    rows = [[lattice[i][j] + (i == j) for j in range(n)] for i in range(n)]
    rows += [[wm[i][j] - (i == j) for j in range(n)] for i in range(n)]
    return n - rational_rank(rows)


def psi0_reflection_group(lattice: list[list[int]], kind: str, rank: int) -> frozenset[Perm]:
    """The reflection group of the roots the lattice involution negates."""
    gens = []
    for a in positive_roots(kind, rank):
        image = tuple(sum(lattice[i][j] * a[j] for j in range(rank)) for i in range(rank))
        if image != tuple(-x for x in a):
            continue
        support = [(i + 1, x) for i, x in enumerate(a) if x]
        if len(support) == 1:
            flip = list(range(1, rank + 1))
            flip[support[0][0] - 1] *= -1
            gens.append(tuple(flip))
        else:
            (i, _), (j, cj) = support
            gens.append(_swap(i, j, rank, negate=cj > 0))
    return closure(gens, rank)
