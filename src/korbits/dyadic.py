"""Exact arithmetic over the ring of dyadic rationals and its Gaussian
extension, plus matrices over that ring.

Everything here is exact: a dyadic number is an odd integer (or zero) times
a power of two, a Gaussian dyadic is a pair of those, and a matrix keeps
only its nonzero entries, as Gaussian integers sharing one power of two.
The scalars add, subtract and multiply but do not divide: the only
quotient needed is the inverse of a unit z, whose norm is a power of two
2^e, so 1/z is conj(z) times 2^-e.
Determinants and inverses split the indices into the connected components
of the nonzero pattern and run one fraction-free (Bareiss) elimination over
Z[i] per component, so a matrix of disjoint small blocks costs only its
blocks; an inverse exists only for a unit determinant.  ``TorusStructure``
describes how a diagonalizable torus sits inside matrices, as the torus
coordinate on each diagonal slot after diagonalizing and the 2x2 blocks
that diagonalize; it embeds torus points and converts torus-normalizing
monomial matrices into signed permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Sequence

from .weyl import SignedPerm, closure

__all__ = [
    "Dyadic",
    "DyadicGauss",
    "ExactMatrix",
    "TorusStructure",
    "NotAUnit",
    "NotMonomial",
    "diagonal_structure",
    "D0",
    "D1",
    "G0",
    "G1",
    "GI",
]


class NotAUnit(ArithmeticError):
    """Raised when inverting a matrix whose determinant is not a unit."""


class NotMonomial(ValueError):
    """Raised when a matrix expected to normalize a torus does not."""


@dataclass(frozen=True)
class Dyadic:
    """num * 2**exp with num odd (or zero, with exp forced to 0)."""

    num: int
    exp: int = 0

    def __post_init__(self) -> None:
        num = self.num
        k = (num & -num).bit_length() - 1  # the lowest set bit of num
        object.__setattr__(self, "num", num >> k if num else 0)
        object.__setattr__(self, "exp", self.exp + k if num else 0)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.exp, other.exp)
        return Dyadic(
            self.num * 2 ** (self.exp - e) + other.num * 2 ** (other.exp - e), e
        )

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.exp + other.exp)

    def is_zero(self) -> bool:
        return self.num == 0

    def is_power_of_two(self) -> bool:
        return self.num == 1

    def __str__(self) -> str:
        if self.exp >= 0:
            return str(self.num * 2**self.exp)
        return f"{self.num}/{2 ** -self.exp}"


D0 = Dyadic(0)
D1 = Dyadic(1)


@dataclass(frozen=True)
class DyadicGauss:
    """re + im*i with dyadic components."""

    re: Dyadic = D0
    im: Dyadic = D0

    @staticmethod
    def of(re, im=0) -> "DyadicGauss":
        conv = lambda v: v if isinstance(v, Dyadic) else Dyadic(v)
        return DyadicGauss(conv(re), conv(im))

    def __neg__(self) -> "DyadicGauss":
        return DyadicGauss(-self.re, -self.im)

    def __mul__(self, other: "DyadicGauss") -> "DyadicGauss":
        return DyadicGauss(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "DyadicGauss":
        return DyadicGauss(self.re, -self.im)

    def norm(self) -> Dyadic:
        return self.re * self.re + self.im * self.im

    def is_unit(self) -> bool:
        """Unit of the Gaussian dyadic ring: norm is a power of two."""
        return self.norm().is_power_of_two()

    def inverse(self) -> "DyadicGauss":
        """1/z = conj(z) / |z|^2, and a unit's norm is a power of two 2^e, so
        the division is a multiplication by 2^-e."""
        n = self.norm()
        if not n.is_power_of_two():
            raise NotAUnit(f"{self} is not a unit")
        return self.conjugate() * DyadicGauss(Dyadic(1, -n.exp))

    def __str__(self) -> str:
        if self.im.is_zero():
            return str(self.re)
        if self.re.is_zero():
            return f"{self.im}i"
        return f"{self.re}{'+' if self.im.num > 0 else ''}{self.im}i"


G0 = DyadicGauss(D0, D0)
G1 = DyadicGauss(D1, D0)
GI = DyadicGauss(D0, D1)


def _as_gauss(v) -> DyadicGauss:
    if isinstance(v, DyadicGauss):
        return v
    if isinstance(v, (Dyadic, int)):
        return DyadicGauss.of(v)
    raise TypeError(f"cannot coerce {v!r} to a Gaussian dyadic")


def _gauss(re: int, im: int, e: int) -> DyadicGauss:
    return DyadicGauss(Dyadic(re, e), Dyadic(im, e)) if re or im else G0


def _from_cells(nrows: int, ncols: int, cells) -> "ExactMatrix":
    """The matrix with the given (row, column, value) entries, zero elsewhere."""
    cells = [(r, c, _as_gauss(v)) for r, c, v in cells]
    # the least exponent of any component, zeros' 0 included: no shift is negative
    e = min((x.exp for _, _, z in cells for x in (z.re, z.im)), default=0)
    rows: list[dict] = [{} for _ in range(nrows)]
    for r, c, z in cells:
        rows[r][c] = (z.re.num << (z.re.exp - e), z.im.num << (z.im.exp - e))
    return ExactMatrix(ncols, rows, e)


def _gauss_jordan(rows: list[list[tuple[int, int]]]) -> tuple[int, int, int]:
    """Fraction-free Gauss-Jordan elimination over Z[i] on the leading
    square block of ``rows``, in place (Bareiss, Math. Comp. 22, 1968).

    Step k replaces every other row by (p*row - f*pivot_row) / p', with p
    the pivot, f the row's entry in column k and p' the previous pivot;
    Sylvester's identity makes that division exact.  The block ends as d*I
    for the last pivot d, and the columns right of it undergo the same row
    operations, so [A | I] becomes [d*I | d*A^-1].  Returns (sign, re, im)
    of d, with det = sign * d; d is 0 when the block is singular.
    """
    n = len(rows)
    sign, pr, pi = 1, 1, 0
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k] != (0, 0)), None)
        if piv is None:
            return sign, 0, 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        kr, ki = top[k]
        norm = pr * pr + pi * pi
        for i in range(n):
            if i == k:
                continue
            fr, fi = rows[i][k]
            new = []
            for (xr, xi), (yr, yi) in zip(rows[i], top):
                zr = kr * xr - ki * xi - fr * yr + fi * yi
                zi = kr * xi + ki * xr - fr * yi - fi * yr
                qr, rr = divmod(zr * pr + zi * pi, norm)
                qi, ri = divmod(zi * pr - zr * pi, norm)
                if rr or ri:
                    raise ArithmeticError("inexact division in Bareiss elimination")
                new.append((qr, qi))
            rows[i] = new
        pr, pi = kr, ki
    return sign, pr, pi


@dataclass(frozen=True)
class ExactMatrix:
    """Matrix over the Gaussian dyadics, kept as its nonzero entries.

    ``rows[r]`` maps each column of a nonzero entry in row r to (re, im),
    the entry being (re + im*i) * 2**exp.  Construction drops zero entries
    and moves the power of two that divides every component into ``exp``
    (0 for the zero matrix); dict equality ignores the order in which
    entries arrive, so equal matrices have equal fields.  With no zero to
    drop and no power to move, the caller's row dicts are kept: every
    producer (``__mul__``, ``transpose``, ``conjugate``, ``inverse``,
    ``placed``, ``_from_cells``, ``catalog._perm_matrix``) builds them fresh.
    """

    ncols: int
    rows: tuple[dict[int, tuple[int, int]], ...]
    exp: int = 0

    def __post_init__(self) -> None:
        bits = [x | y for row in self.rows for x, y in row.values()]
        low = reduce(or_, bits, 0)
        k = (low & -low).bit_length() - 1 if low else 0
        rows = self.rows
        if k or 0 in bits:
            rows = [
                {c: (x >> k, y >> k) for c, (x, y) in r.items() if x or y} for r in rows
            ]
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "exp", self.exp + k if low else 0)

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "ExactMatrix":
        rows = [list(row) for row in rows]
        cells = [(r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row)]
        return _from_cells(len(rows), len(rows[0]) if rows else 0, cells)

    @staticmethod
    def diagonal(values: Sequence) -> "ExactMatrix":
        n = len(values)
        return _from_cells(n, n, [(i, i, v) for i, v in enumerate(values)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[DyadicGauss, ...], ...]:
        """The dense rows, for readers outside the package."""
        dense = [[G0] * self.ncols for _ in self.rows]
        for r, row in enumerate(self.rows):
            for c, (re, im) in row.items():
                dense[r][c] = _gauss(re, im, self.exp)
        return tuple(map(tuple, dense))

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.ncols} vs {other.nrows}")
        rows = []
        for arow in self.rows:
            acc: dict[int, tuple[int, int]] = {}
            for k, (xr, xi) in arow.items():
                for j, (yr, yi) in other.rows[k].items():
                    zr, zi = acc.get(j, (0, 0))
                    acc[j] = (zr + xr * yr - xi * yi, zi + xr * yi + xi * yr)
            rows.append(acc)
        return ExactMatrix(other.ncols, rows, self.exp + other.exp)

    def transpose(self) -> "ExactMatrix":
        cols: list[dict] = [{} for _ in range(self.ncols)]
        for r, row in enumerate(self.rows):
            for c, z in row.items():
                cols[c][r] = z
        return ExactMatrix(self.nrows, cols, self.exp)

    def conjugate(self) -> "ExactMatrix":
        """Entrywise Galois conjugation i -> -i."""
        rows = [{c: (re, -im) for c, (re, im) in row.items()} for row in self.rows]
        return ExactMatrix(self.ncols, rows, self.exp)

    def _eliminated(self, augment: bool) -> tuple[int, int, list]:
        """(re, im) of det M for self = 2**exp * M, and the blocks of M.

        The blocks are the connected components of the nonzero pattern (i ~
        j when entry (i, j) or (j, i) is nonzero): up to relabelling, M is
        block diagonal, so det M is the product of the blocks' determinants
        and M^-1 places the blocks' inverses.  Each block is eliminated by
        one ``_gauss_jordan``, with the identity appended when ``augment``,
        and listed as (sorted indices, last pivot re, im, rows); a 1x1 block
        is read off its one entry."""
        links = [list(row) for row in self.rows]
        for r, row in enumerate(self.rows):
            for c in row:
                links[c].append(r)
        dr, di, blocks, left = 1, 0, [], set(range(self.nrows))
        while left:
            g = left.pop()
            if all(c == g for c in links[g]):
                # A 1x1 block [d] is its own last pivot, and [d | 1] is
                # already [d*I | d*M^-1].
                cr, ci = self.rows[g].get(g, (0, 0))
                sign, comp, rows = 1, [g], [[(cr, ci), (1, 0)]]
            else:
                comp = sorted(closure([g], links.__getitem__))
                left.difference_update(comp)
                m, local = len(comp), {r: k for k, r in enumerate(comp)}
                eye = [
                    [(int(j == k), 0) for j in range(m)] if augment else []
                    for k in range(m)
                ]
                rows = [[(0, 0)] * m + row for row in eye]
                for k, r in enumerate(comp):
                    for c, z in self.rows[r].items():
                        rows[k][local[c]] = z
                sign, cr, ci = _gauss_jordan(rows)
            dr, di = sign * (dr * cr - di * ci), sign * (dr * ci + di * cr)
            blocks.append((comp, cr, ci, rows))
        return dr, di, blocks

    def det(self) -> DyadicGauss:
        """Exact determinant, the product of the blocks' determinants."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        dr, di, _ = self._eliminated(False)
        return _gauss(dr, di, self.nrows * self.exp)

    def inverse(self) -> "ExactMatrix":
        """Inverse within the Gaussian dyadic ring (determinant must be a
        unit, otherwise the inverse has entries outside the ring), placed
        together from the blocks' inverses."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        dr, di, blocks = self._eliminated(True)
        norm = dr * dr + di * di
        if not norm or norm & (norm - 1):
            d = _gauss(dr, di, self.nrows * self.exp)
            raise NotAUnit(f"determinant {d} is not a unit")
        # A block's right half is d * M^-1 for its last pivot d, and 1/d =
        # conj(d) / |d|^2 with |d|^2 a power of two dividing norm.
        out: list = [()] * self.nrows
        for comp, cr, ci, rows in blocks:
            s, m = norm.bit_length() - (cr * cr + ci * ci).bit_length(), len(comp)
            for g, row in zip(comp, rows):
                out[g] = {
                    c: ((xr * cr + xi * ci) << s, (xi * cr - xr * ci) << s)
                    for c, (xr, xi) in zip(comp, row[m:])
                }
        return ExactMatrix(self.ncols, out, 1 - self.exp - norm.bit_length())


def placed(
    size: int, placements: Iterable[tuple[Sequence[int], ExactMatrix]]
) -> ExactMatrix:
    """Identity matrix with blocks placed at the given 1-based indices."""
    placements = list(placements)
    e = min([0] + [block.exp for _, block in placements])
    rows = [{r: (1 << -e, 0)} for r in range(size)]
    for idx, block in placements:
        s = block.exp - e
        for r, brow in zip(idx, block.rows):
            rows[r - 1] = {idx[c] - 1: (x << s, y << s) for c, (x, y) in brow.items()}
    return ExactMatrix(size, rows, e)


# -- torus structures -----------------------------------------------------

#: Diagonalizer for rotation blocks (a b; -b a) -> diag(z, z'), z = a + bi;
#: also the split-group torus realizer.
UCIRC = ExactMatrix.from_rows([[1, 1], [GI, -GI]])
#: Diagonalizer for symmetric blocks (a c; c a) -> diag(a+c, a-c).
UHYP = ExactMatrix.from_rows([[1, 1], [1, -1]])


class TorusStructure:
    """How a torus sits inside size x size matrices, size = len(labels).

    After conjugating by U, the torus is diagonal: 0-based slot s holds
    coordinate k when ``labels[s]`` is k, its inverse when it is -k, and
    the constant 1 when it is 0; ``rank`` is the largest |label|.
    ``blocks`` lists the 2x2 blocks of U as ((r1, r2), UCIRC or UHYP) at
    1-based indices, U being the identity elsewhere; UCIRC diagonalizes
    (a b; -b a) blocks and UHYP (a c; c a) blocks.  Structures are
    compared and hashed by identity.
    """

    def __init__(
        self,
        labels: tuple[int, ...],
        blocks: tuple[tuple[tuple[int, int], ExactMatrix], ...] = (),
    ) -> None:
        self.labels = labels
        self.blocks = blocks
        used = [r for idx, _ in blocks for r in idx]
        if len(set(used)) != len(used) or not set(used) <= set(range(1, self.size + 1)):
            raise ValueError(f"blocks overlap or leave 1..{self.size}: {used}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def rank(self) -> int:
        return max(map(abs, self.labels), default=0)

    @cached_property
    def _diagonalizer(self) -> tuple[ExactMatrix, ExactMatrix] | None:
        """(U, U^-1) with U^-1 * torus * U diagonal; None if U is the identity."""
        if not self.blocks:
            return None
        u = placed(self.size, self.blocks)
        return u, u.inverse()

    def embed(self, values: Sequence[DyadicGauss]) -> ExactMatrix:
        """Torus point with the given coordinate values (a value on an
        inverse slot must be a unit)."""
        if len(values) != self.rank:
            raise ValueError(f"need {self.rank} values, got {len(values)}")
        vals = [G1] + [_as_gauss(v) for v in values]
        diag = [vals[k] if k >= 0 else vals[-k].inverse() for k in self.labels]
        d = ExactMatrix.diagonal(diag)
        if self._diagonalizer is None:
            return d
        U, Uinv = self._diagonalizer
        return U * d * Uinv

    def sample_point(self) -> tuple[DyadicGauss, ...]:
        """Generic torus point with pairwise-distinct unit coordinates,
        no value equal to another's inverse."""
        powers = (Dyadic(1, k) for k in range(1, self.rank + 1))
        return tuple(DyadicGauss(d, d) for d in powers)

    def to_weyl(self, m: ExactMatrix) -> SignedPerm:
        """The signed permutation by which conjugation by m permutes the
        torus coordinates (coordinate k -> coordinate j, with a sign flip
        when an eigenvalue lands on a slot of the opposite sign)."""
        if m.nrows != self.size or m.ncols != self.size:
            raise NotMonomial(f"expected a {self.size}x{self.size} matrix")
        if self._diagonalizer is not None:
            U, Uinv = self._diagonalizer
            m = Uinv * m * U
        col_of_row = []
        for i, row in enumerate(m.rows):
            if len(row) != 1:
                raise NotMonomial(f"row {i + 1} has {len(row)} nonzero entries")
            col_of_row.extend(row)
        if len(set(col_of_row)) != self.size:
            raise NotMonomial("columns collide; matrix is not monomial")
        images = [0] * self.rank
        for out_lab, in_slot in zip(self.labels, col_of_row):
            in_lab = self.labels[in_slot]
            if (in_lab == 0) != (out_lab == 0):
                raise NotMonomial("torus coordinate mixes with a trivial slot")
            if in_lab:
                k, img = abs(in_lab) - 1, out_lab if in_lab > 0 else -out_lab
                if images[k] not in (0, img):
                    raise NotMonomial("paired slots map inconsistently")
                images[k] = img
        return SignedPerm(images)


def diagonal_structure(n: int) -> TorusStructure:
    return TorusStructure(tuple(range(1, n + 1)))
