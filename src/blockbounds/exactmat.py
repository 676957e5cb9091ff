"""Exact rational dense linear algebra.

Matrices are immutable values over arbitrary-precision rationals
(``fractions.Fraction``); every operation returns a fresh matrix, so all
functions here are safe to call concurrently.  Determinants, inverses, ranks
and leading principal minors share one fraction-free elimination kernel
(Bareiss 1968) on denominator-cleared integer matrices, which keeps
intermediate coefficient growth polynomial; an inverse back-substitutes on
integers too and comes out as numerators over one common denominator.
Positive definiteness here and every LDL in ``lattice`` are read from the
swap-free run by one reader, ``_ldl_rows``.  ``trace_pairing`` reads both
operands as cleared integer rows too: tr(a b) is one integer dot product
over them, and one ``Fraction`` over the product of the two denominators.

``CartanData`` owns what is derived from a Cartan matrix: its integer rows,
its inverse as (rows, den), eliminated at most once and only when read, and
the dominated block's C/q, made once.  Its symmetry and positive
definiteness are decided once, on construction.

Floating point never enters any result.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .ntheory import DomainError, is_prime, valuation

# The documented entry format: an integer or a/b, nothing else Fraction parses.
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class ShapeError(ValueError):
    """Dimension mismatch between matrix operands."""


class SingularMatrixError(ValueError):
    """A nonsingular matrix was required."""


class InconsistentDataError(ValueError):
    """Well-formed input that no block can have, such as a bound below 1."""


class InternalInvariantError(RuntimeError):
    """A cross-check inside the library failed: a bug, not bad input."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and _RATIONAL_TEXT.fullmatch(x):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            pass
        except ValueError:  # more digits than int() converts
            raise DomainError(
                f"entry of {len(x)} characters has more digits than an exact entry may have"
            ) from None
    raise DomainError(f"entry {x!r} is not an exact rational (an integer or a/b)")


class RationalMatrix:
    """Dense matrix of exact rationals, row-major, immutable."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        data = tuple(tuple(_as_fraction(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ShapeError("matrix dimensions must be at least 1x1")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ShapeError("ragged rows")
        self._rows = data

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._rows[i][j]

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return _rows_repr(self._rows)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, r: int, c: int) -> "RationalMatrix":
        return cls([[0] * c for _ in range(r)])

    @classmethod
    def filled(cls, r: int, c: int, value) -> "RationalMatrix":
        return cls([[value] * c for _ in range(r)])

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("addition needs equal shapes")
        return RationalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-a for a in row] for row in self._rows])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bt = tuple(zip(*other._rows))
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self._rows]
        )

    def scale(self, c) -> "RationalMatrix":
        c = _as_fraction(c)
        return RationalMatrix([[c * a for a in row] for row in self._rows])

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self._rows)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ShapeError("trace needs a square matrix")
        return sum(self._rows[i][i] for i in range(self.rows))

    def permuted(self, perm) -> "RationalMatrix":
        """P M P^t with P e_j = e_perm[j]: entry (i, j) moves to (perm[i], perm[j])."""
        n = self.rows
        if n != self.cols:
            raise ShapeError("permuted needs a square matrix")
        if sorted(perm) != list(range(n)):
            raise DomainError(f"{perm} is not a permutation of 0..{n - 1}")
        inv = sorted(range(n), key=perm.__getitem__)
        return RationalMatrix([[self._rows[a][b] for b in inv] for a in inv])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square() and all(
            self._rows[i][j] == self._rows[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self._rows for x in row)


def trace_pairing(a: RationalMatrix, b: "RationalMatrix | CartanData") -> Fraction:
    """tr(a b) = sum a_ij b_ji, without forming the product.

    With s_a a = A and s_b b = B integral (``_cleared_int_rows``), this is
    sum A_ij B_ji / (s_a s_b): one integer dot product and one ``Fraction``.
    A ``CartanData`` ``b`` gives its integer rows as they are (s_b = 1).
    """
    ints_b, s_b = (b.ints, 1) if isinstance(b, CartanData) else _cleared_int_rows(b)
    if a.rows != len(ints_b[0]) or a.cols != len(ints_b):
        raise ShapeError(f"cannot pair {a.rows}x{a.cols} with {len(ints_b)}x{len(ints_b[0])}")
    ints_a, s_a = _cleared_int_rows(a)
    return Fraction(sum(map(_dot, ints_a, zip(*ints_b))), s_a * s_b)


def _dot(u, v) -> int:
    """sum u_k v_k of two integer sequences."""
    return sum(map(mul, u, v))


def kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Kronecker product in block (lexicographic) order: a's entry scales b."""
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            row = []
            for j in range(a.cols):
                aij = a[i, j]
                row.extend(aij * b[k, l] for l in range(b.cols))
            out.append(row)
    return RationalMatrix(out)


def _rows_repr(rows) -> str:
    """The repr of ``RationalMatrix(rows)`` for nonempty rows of ints or
    Fractions, without building the matrix."""
    body = "; ".join(" ".join(map(str, row)) for row in rows)
    return f"RationalMatrix({len(rows)}x{len(rows[0])}: {body})"


def _cleared_int_rows(a) -> tuple[list[list[int]], int]:
    """Return (s*a as int rows, s) for the common denominator s > 0 of the
    rows of Fractions ``a``, on integers only; s = 1 iff ``a`` is integral.

    The one place where matrix entries become ints: no other module reads
    the numerator or denominator of an entry."""
    s = lcm(*(x.denominator for row in a for x in row))
    rows = [[x.numerator * (s // x.denominator) for x in row] for row in a]
    return rows, s


def _bareiss(m: list[list[int]], ncols: int, pivoting: bool) -> tuple[list[int], int]:
    """Fraction-free elimination (Bareiss 1968) of the integer rows ``m``, in place.

    Pivots are sought in the first ``ncols`` columns; row updates run across
    the whole row, so augmented columns are carried along.  Returns the pivot
    columns and the sign of the row permutation.  With ``pivoting`` a zero
    pivot is swapped with the first nonzero entry below it, or its column is
    skipped; without, no rows move and elimination stops after the first
    pivot <= 0.  Each multiplier is kept below its pivot rather than zeroed;
    ``_ldl_rows`` reads what the swap-free run leaves.
    """
    nrows, width = len(m), len(m[0])
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if pivoting and m[r][c] == 0:
            swap = next((i for i in range(r + 1, nrows) if m[i][c]), None)
            if swap is None:
                continue
            m[r], m[swap] = m[swap], m[r]
            sign = -sign
        pk = m[r][c]
        pivots.append(c)
        if not pivoting and pk <= 0:
            break
        rk = m[r]
        for i in range(r + 1, nrows):
            ri = m[i]
            mik = ri[c]
            for j in range(c + 1, width):
                ri[j] = (pk * ri[j] - mik * rk[j]) // prev
        prev = pk
    return pivots, sign


def determinant(a: RationalMatrix) -> Fraction:
    if not a.is_square():
        raise ShapeError("determinant needs a square matrix")
    ints, s = _cleared_int_rows(a)
    return Fraction(_int_determinant(ints), s**a.rows)


def _int_determinant(m: list[list[int]]) -> int:
    """det of the square integer rows ``m``, which the kernel eliminates in place."""
    pivots, sign = _bareiss(m, len(m), pivoting=True)
    return sign * m[-1][-1] if len(pivots) == len(m) else 0


def _inverse_rows(a: RationalMatrix) -> tuple[list[list[int]], int]:
    """(rows, den) with a^{-1} = rows / den and den > 0 the least common
    denominator of its entries.

    The kernel reduces [s a | s I] to [U | B] with U X = B for X = a^{-1}.
    Its last pivot D is +-det(s a), so Y = D X = +-s adj(s a) is integral
    (Cramer) and each back-substitution step
    U_ii Y_ic = D B_ic - sum_{j>i} U_ij Y_jc is an exact integer division.
    """
    if not a.is_square():
        raise ShapeError("inverse needs a square matrix")
    n = a.rows
    ints, s = _cleared_int_rows(a)
    for i in range(n):
        ints[i].extend(s if j == i else 0 for j in range(n))
    if len(_bareiss(ints, n, pivoting=True)[0]) < n:
        raise SingularMatrixError("matrix is singular")
    d = ints[-1][n - 1]
    y: list[list[int]] = [[]] * n
    for i in range(n - 1, -1, -1):
        u = ints[i]
        acc = [d * b for b in u[n:]]
        for j in range(i + 1, n):
            if u[j]:
                acc = [x - u[j] * v for x, v in zip(acc, y[j])]
        qr = [divmod(x, u[i]) for x in acc]
        if any(r for _, r in qr):
            raise InternalInvariantError(
                f"back substitution left a remainder in row {i}: D X is not integral"
            )
        y[i] = [q for q, _ in qr]
    g = gcd(d, *(v for row in y for v in row))
    if d < 0:
        g = -g
    return [[v // g for v in row] for row in y], d // g


def inverse(a: "RationalMatrix | CartanData") -> RationalMatrix:
    """Exact inverse: the integer rows of ``_inverse_rows`` over their
    denominator, or of ``CartanData.inverse_rows`` for Cartan data."""
    rows, den = a.inverse_rows if isinstance(a, CartanData) else _inverse_rows(a)
    return RationalMatrix([[Fraction(v, den) for v in row] for row in rows])


def rank(a: RationalMatrix) -> int:
    """Rank over the rationals: the number of fraction-free pivots."""
    ints, _ = _cleared_int_rows(a)
    return len(_bareiss(ints, a.cols, pivoting=True)[0])


def _ldl_rows(m: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(minors, m) after the swap-free kernel ran on square integer ``m`` in place.

    ``minors`` = [D_0 = 1, D_1, ...], the leading principal minors up to the
    first D_i <= 0.  For symmetric m, m = L D L^t with d_i = D_{i+1} / D_i
    and, in every column i before the stop, L_ji = m_ji / D_{i+1}.
    """
    pivots, _ = _bareiss(m, len(m), pivoting=False)
    return [1] + [m[i][i] for i in pivots], m


def is_positive_definite(a: RationalMatrix) -> bool:
    """True iff a is symmetric with all leading principal minors positive."""
    return a.is_symmetric() and _minors_positive(_cleared_int_rows(a)[0])


def _minors_positive(m: list[list[int]]) -> bool:
    """True iff every leading principal minor of the square int rows ``m``,
    eliminated in place, is positive: for symmetric m, positive definite."""
    return _ldl_rows(m)[0][-1] > 0


class CartanData:
    """Integer symmetric positive definite matrix with block metadata.

    ``defect``, when given, pins the largest elementary divisor to p**defect.
    ``ints`` (integer rows), ``inverse_rows`` and ``_divided`` are each made
    once, and nothing may modify them.
    """

    __slots__ = ("matrix", "p", "defect", "ints", "_inverse", "_divided_by")

    def __init__(self, matrix: RationalMatrix, p: int, defect: int | None = None):
        if not is_prime(p):
            raise DomainError(f"{p} is not a prime")
        if not matrix.is_square():
            raise DomainError("Cartan matrix must be square")
        ints, s = _cleared_int_rows(matrix)
        if s != 1:
            raise DomainError("Cartan matrix must have integer entries")
        if any(x < 0 for row in ints for x in row):
            raise DomainError("Cartan matrix entries must be nonnegative")
        if not matrix.is_symmetric():
            raise DomainError("Cartan matrix must be symmetric")
        if not _minors_positive([row[:] for row in ints]):
            raise DomainError("Cartan matrix must be positive definite")
        self.matrix = matrix
        self.p = p
        self.defect = defect
        self.ints = ints
        self._inverse = self._divided_by = None
        if defect is not None:
            if defect < 0:
                raise DomainError("defect must be nonnegative")
            # the largest elementary divisor of a nonsingular integer matrix
            # is the least common denominator of its inverse
            top = self.inverse_rows[1]
            # p^defect >= 2^(defect (bits(p) - 1)): when that reaches the bit
            # length of top, the two differ and p^defect is never formed
            if defect * (p.bit_length() - 1) >= top.bit_length() or top != p**defect:
                shown = top if top.bit_length() <= 4096 else f"of {top.bit_length()} bits"
                raise DomainError(
                    f"largest elementary divisor {shown} is not p^defect = {p}^{defect}"
                )

    @property
    def l(self) -> int:
        return self.matrix.rows

    @property
    def inverse_rows(self) -> tuple[list[list[int]], int]:
        """``_inverse_rows`` of C, eliminated on the first read."""
        if self._inverse is None:
            self._inverse = _inverse_rows(self.matrix)
        return self._inverse

    def _divided(self, q: int) -> "CartanData":
        """C/q, the dominated block's data for q = p^v > 1, made on the first
        call for q.  Only divisibility and the defect are checked: C/q inherits
        the rest, and C^{-1} = rows / den gives (C/q)^{-1} = rows / (den/q)."""
        if self._divided_by is None or self._divided_by[0] != q:
            if any(x % q for row in self.ints for x in row):
                raise DomainError(
                    f"Cartan matrix of b must be divisible by q = {q}; "
                    "it does not match the subsection"
                )
            # q divides every elementary divisor of C, so p^defect >= q
            defect = None if self.defect is None else self.defect - valuation(q, self.p)
            bar = object.__new__(CartanData)
            bar.ints = [[x // q for x in row] for row in self.ints]
            bar.matrix, bar.p, bar.defect = RationalMatrix(bar.ints), self.p, defect
            known = self._inverse
            bar._inverse = None if known is None else (known[0], known[1] // q)
            bar._divided_by = None
            self._divided_by = q, bar
        return self._divided_by[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CartanData)
            and self.matrix == other.matrix
            and self.p == other.p
            and self.defect == other.defect
        )


def matrix_to_record(a: RationalMatrix) -> dict:
    """Shared matrix text format; entries are canonical 'n' or 'n/d' strings."""
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[str(x) for x in row] for row in a],
    }


def matrix_from_record(rec: dict) -> RationalMatrix:
    if not isinstance(rec, dict):
        raise DomainError("matrix record must be an object with rows, cols, entries")
    try:
        rows, cols, entries = rec["rows"], rec["cols"], rec["entries"]
    except KeyError as exc:
        raise DomainError(f"matrix record is missing field {exc}") from exc
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise DomainError("matrix record entries must be a list of rows")
    m = RationalMatrix(entries)
    if m.rows != rows or m.cols != cols:
        raise DomainError(
            f"matrix record claims {rows}x{cols} but has {m.rows}x{m.cols} entries"
        )
    return m
