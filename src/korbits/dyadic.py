"""Exact arithmetic over the ring of dyadic rationals and its Gaussian
extension, plus matrices over that ring.

Everything here is exact: a dyadic number is an odd integer (or zero) times
a power of two, a Gaussian dyadic is a pair of those, and matrices carry
Gaussian-dyadic entries.  Matrix products, determinants and inverses work on
Gaussian integers sharing one power-of-two exponent; determinants and
inverses come from one fraction-free (Bareiss) elimination over Z[i], whose
divisions are exact, and an inverse exists only for a unit determinant.
Conjugation by a signed permutation (``permuted``) relabels entries, with no
product or elimination.  ``TorusStructure`` describes how a diagonalizable
torus sits inside matrices (plain diagonal, rotation-style 2x2 blocks, or
norm-one blocks carrying inverse-paired eigenvalues), inverts its
diagonalizer through its blocks, and converts torus-normalizing monomial
matrices into signed permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .weyl import SignedPerm

__all__ = [
    "Dyadic",
    "DyadicGauss",
    "ExactMatrix",
    "TorusStructure",
    "DivisionNotDyadic",
    "NotAUnit",
    "NotMonomial",
    "diagonal_structure",
    "D0",
    "D1",
    "G0",
    "G1",
    "GI",
]


class DivisionNotDyadic(ArithmeticError):
    """Raised when a quotient has an odd factor in its denominator."""


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
        num, exp = self.num, self.exp
        if num == 0:
            exp = 0
        else:
            while num % 2 == 0:
                num //= 2
                exp += 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

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

    def __truediv__(self, other: "Dyadic") -> "Dyadic":
        if other.num == 0:
            raise ZeroDivisionError("dyadic division by zero")
        if self.num % other.num:
            raise DivisionNotDyadic(f"{self} / {other} leaves the dyadic ring")
        return Dyadic(self.num // other.num, self.exp - other.exp)

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

    def __truediv__(self, other: "DyadicGauss") -> "DyadicGauss":
        n = other.norm()
        if n.is_zero():
            raise ZeroDivisionError("division by zero")
        z = self * other.conjugate()
        return DyadicGauss(z.re / n, z.im / n)

    def conjugate(self) -> "DyadicGauss":
        return DyadicGauss(self.re, -self.im)

    def norm(self) -> Dyadic:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def is_unit(self) -> bool:
        """Unit of the Gaussian dyadic ring: norm is a power of two."""
        return self.norm().is_power_of_two()

    def inverse(self) -> "DyadicGauss":
        if not self.is_unit():
            raise NotAUnit(f"{self} is not a unit")
        return self.conjugate() / DyadicGauss(self.norm(), D0)

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
    if isinstance(v, Dyadic):
        return DyadicGauss(v, D0)
    if isinstance(v, int):
        return DyadicGauss(Dyadic(v), D0)
    raise TypeError(f"cannot coerce {v!r} to a Gaussian dyadic")


# Internal: a matrix as Gaussian-integer pairs (re, im) sharing one
# exponent e, entry = (re + im*i) * 2**e.  e is the least exponent of any
# component, zeros (exponent 0) included, so no shift is negative.
def _ints(rows) -> tuple[list[list[tuple[int, int]]], int]:
    e = min((c.exp for row in rows for z in row for c in (z.re, z.im)), default=0)
    ints = [
        [(z.re.num << (z.re.exp - e), z.im.num << (z.im.exp - e)) for z in row]
        for row in rows
    ]
    return ints, e


def _gauss(re: int, im: int, e: int) -> DyadicGauss:
    return DyadicGauss(Dyadic(re, e), Dyadic(im, e)) if re or im else G0


def _from_ints(rows, e: int) -> "ExactMatrix":
    return ExactMatrix(tuple(tuple(_gauss(*z, e) for z in row) for row in rows))


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
    """Square or rectangular matrix over the Gaussian dyadics."""

    entries: tuple[tuple[DyadicGauss, ...], ...]

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(_as_gauss(v) for v in row) for row in rows))

    @staticmethod
    def diagonal(values: Sequence) -> "ExactMatrix":
        vals = [_as_gauss(v) for v in values]
        n = len(vals)
        return ExactMatrix(
            tuple(
                tuple(vals[i] if i == j else G0 for j in range(n))
                for i in range(n)
            )
        )

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, rc: tuple[int, int]) -> DyadicGauss:
        return self.entries[rc[0]][rc[1]]

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.ncols} vs {other.nrows}")
        a, ea = _ints(self.entries)
        b, eb = _ints(other.entries)
        b = [[(j, yr, yi) for j, (yr, yi) in enumerate(row) if yr or yi] for row in b]
        rows = []
        for arow in a:
            re, im = [0] * other.ncols, [0] * other.ncols
            for (xr, xi), brow in zip(arow, b):
                if xr or xi:
                    for j, yr, yi in brow:
                        re[j] += xr * yr - xi * yi
                        im[j] += xr * yi + xi * yr
            rows.append(zip(re, im))
        return _from_ints(rows, ea + eb)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(tuple(zip(*self.entries)))

    def conjugate(self) -> "ExactMatrix":
        """Entrywise Galois conjugation i -> -i."""
        return ExactMatrix(
            tuple(tuple(a.conjugate() for a in row) for row in self.entries)
        )

    def permuted(self, w: SignedPerm) -> "ExactMatrix":
        """P * self * P^-1 for the matrix P of w: entry (a, b) moves to
        (|w(a)|, |w(b)|), negated when w flips the sign of just one of a, b."""
        src = [(abs(x) - 1, x > 0) for x in w.inverse()]
        rows = [(self.entries[a], sa) for a, sa in src]
        return ExactMatrix(
            tuple(tuple(r[b] if sa == sb else -r[b] for b, sb in src) for r, sa in rows)
        )

    def is_diagonal(self) -> bool:
        return all(
            self.entries[i][j].is_zero()
            for i in range(self.nrows)
            for j in range(self.ncols)
            if i != j
        )

    def diagonal_values(self) -> tuple[DyadicGauss, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.nrows, self.ncols)))

    def det(self) -> DyadicGauss:
        """Exact determinant, by fraction-free elimination over Z[i]."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        rows, e = _ints(self.entries)
        sign, dr, di = _gauss_jordan(rows)
        return _gauss(sign * dr, sign * di, self.nrows * e)

    def inverse(self) -> "ExactMatrix":
        """Inverse within the Gaussian dyadic ring (determinant must be a
        unit, otherwise the inverse has entries outside the ring)."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        rows, e = _ints(self.entries)
        for i, row in enumerate(rows):
            row.extend((int(i == j), 0) for j in range(n))
        sign, dr, di = _gauss_jordan(rows)
        norm = dr * dr + di * di
        if not norm or norm & (norm - 1):
            d = _gauss(sign * dr, sign * di, n * e)
            raise NotAUnit(f"determinant {d} is not a unit")
        # A = 2**e * M, the right block is d * M^-1, and 1/d = conj(d) / norm
        # with norm a power of two.
        right = (
            [(xr * dr + xi * di, xi * dr - xr * di) for xr, xi in row[n:]]
            for row in rows
        )
        return _from_ints(right, 1 - e - norm.bit_length())


def placed(
    size: int, placements: Iterable[tuple[Sequence[int], ExactMatrix]]
) -> ExactMatrix:
    """Identity matrix with blocks placed at the given 1-based indices."""
    rows = [[G1 if i == j else G0 for j in range(size)] for i in range(size)]
    for idx, block in placements:
        for a, r in enumerate(idx):
            for b, c in enumerate(idx):
                rows[r - 1][c - 1] = block[a, b]
    return ExactMatrix(tuple(tuple(r) for r in rows))


# -- torus block structures ----------------------------------------------

#: Diagonalizer for rotation blocks (a b; -b a) -> diag(z, z'), z = a + bi;
#: also the split-group torus realizer.
UCIRC = ExactMatrix.from_rows([[1, 1], [GI, -GI]])
#: Diagonalizer for symmetric blocks (a c; c a) -> diag(a+c, a-c).
_U_HYP = ExactMatrix.from_rows([[1, 1], [1, -1]])
#: Each block style's diagonalizer with its inverse, inverted once here.
_BLOCKS = {
    k: (u, u.inverse()) for k, u in (("circular", UCIRC), ("hyperbolic", _U_HYP))
}


@dataclass(frozen=True)
class TorusStructure:
    """How a torus sits inside size x size matrices.

    ``units`` lists the diagonal building blocks in matrix order; each is
    one of

    - ``("coord", r)``: matrix slot r is one torus coordinate;
    - ``("pair2", r1, r2, style)``: a 2x2 block at rows/cols (r1, r2)
      carrying two independent coordinates (its eigenvalues);
    - ``("pair1", r1, r2, style)``: a 2x2 block carrying one coordinate,
      with eigenvalues (z, 1/z);
    - ``("trivial", r)``: slot r is constant 1 (no coordinate).

    ``style`` is "circular" for (a b; -b a) blocks or "hyperbolic" for
    (a c; c a) blocks.  Matrix indices are 1-based.  Torus coordinates are
    numbered by unit order (pair2 contributing two).
    """

    size: int
    units: tuple[tuple, ...]

    def __post_init__(self) -> None:
        used = []
        for u in self.units:
            used.extend(u[1:2] if u[0] in ("coord", "trivial") else u[1:3])
        if sorted(used) != list(range(1, self.size + 1)):
            raise ValueError(f"units do not tile 1..{self.size}: {self.units}")

    @property
    def rank(self) -> int:
        return sum(
            2 if u[0] == "pair2" else 0 if u[0] == "trivial" else 1
            for u in self.units
        )

    def slot_labels(self) -> tuple:
        """Per matrix slot: (coordinate, exponent) or None (trivial).

        Slots are returned in 1-based matrix order; the label describes
        which torus coordinate shows up on that diagonal slot after
        diagonalizing, and with which exponent.
        """
        labels: list = [None] * self.size
        coord = 0
        for u in self.units:
            if u[0] == "coord":
                coord += 1
                labels[u[1] - 1] = (coord, 1)
            elif u[0] == "pair2":
                labels[u[1] - 1] = (coord + 1, 1)
                labels[u[2] - 1] = (coord + 2, 1)
                coord += 2
            elif u[0] == "pair1":
                coord += 1
                labels[u[1] - 1] = (coord, 1)
                labels[u[2] - 1] = (coord, -1)
        return tuple(labels)

    @cached_property
    def _diagonalizer(self) -> tuple[ExactMatrix, ExactMatrix]:
        """(U, U^-1) with U^-1 * torus * U diagonal, each placing blocks."""
        pairs = [u for u in self.units if u[0] in ("pair1", "pair2")]
        return tuple(
            placed(self.size, [(u[1:3], _BLOCKS[u[3]][k]) for u in pairs])
            for k in (0, 1)
        )

    def embed(self, values: Sequence[DyadicGauss]) -> ExactMatrix:
        """Torus point with the given coordinate values (pair1 values must
        be units, since the block also carries the inverse eigenvalue)."""
        if len(values) != self.rank:
            raise ValueError(f"need {self.rank} values, got {len(values)}")
        vals = [_as_gauss(v) for v in values]
        diag = [G1] * self.size
        labels = self.slot_labels()
        for slot, lab in enumerate(labels):
            if lab is None:
                continue
            coord, expo = lab
            diag[slot] = vals[coord - 1] if expo == 1 else vals[coord - 1].inverse()
        U, Uinv = self._diagonalizer
        return U * ExactMatrix.diagonal(diag) * Uinv

    def extract(self, m: ExactMatrix) -> tuple[DyadicGauss, ...]:
        """Coordinates of a torus point; raises NotMonomial otherwise."""
        U, Uinv = self._diagonalizer
        d = Uinv * m * U
        if not d.is_diagonal():
            raise NotMonomial("matrix is not in the torus")
        diag = d.diagonal_values()
        out: list = [None] * self.rank
        for slot, lab in enumerate(self.slot_labels()):
            if lab is None:
                if diag[slot] != G1:
                    raise NotMonomial("trivial slot is not 1")
                continue
            coord, expo = lab
            val = diag[slot] if expo == 1 else diag[slot].inverse()
            if out[coord - 1] is None:
                out[coord - 1] = val
            elif out[coord - 1] != val:
                raise NotMonomial("inconsistent paired eigenvalues")
        return tuple(out)

    def sample_point(self) -> tuple[DyadicGauss, ...]:
        """Generic torus point with pairwise-distinct unit coordinates,
        no value equal to another's inverse."""
        one_plus_i = DyadicGauss.of(1, 1)
        vals = []
        z = one_plus_i * DyadicGauss.of(2)
        for _ in range(self.rank):
            vals.append(z)
            z = z * DyadicGauss.of(2)
        return tuple(vals)

    def to_weyl(self, m: ExactMatrix) -> SignedPerm:
        """The signed permutation by which conjugation by m permutes the
        torus coordinates (coordinate k -> coordinate j, with exponent -1
        when an eigenvalue lands on its partner's inverse slot)."""
        if m.nrows != self.size or m.ncols != self.size:
            raise NotMonomial(f"expected a {self.size}x{self.size} matrix")
        U, Uinv = self._diagonalizer
        d = Uinv * m * U
        col_of_row = []
        for i in range(self.size):
            nz = [j for j in range(self.size) if not d[i, j].is_zero()]
            if len(nz) != 1:
                raise NotMonomial(f"row {i + 1} has {len(nz)} nonzero entries")
            col_of_row.append(nz[0])
        if len(set(col_of_row)) != self.size:
            raise NotMonomial("columns collide; matrix is not monomial")
        labels = self.slot_labels()
        images = [0] * self.rank
        for out_slot in range(self.size):
            in_slot = col_of_row[out_slot]
            in_lab, out_lab = labels[in_slot], labels[out_slot]
            if (in_lab is None) != (out_lab is None):
                raise NotMonomial("torus coordinate mixes with a trivial slot")
            if in_lab is None:
                continue
            k, e_in = in_lab
            j, e_out = out_lab
            img = (j if e_in == e_out else -j)
            if images[k - 1] == 0:
                images[k - 1] = img
            elif images[k - 1] != img:
                raise NotMonomial("paired slots map inconsistently")
        return SignedPerm(images)


def diagonal_structure(n: int) -> TorusStructure:
    return TorusStructure(n, tuple(("coord", r) for r in range(1, n + 1)))
