"""Dense exact linear algebra over the rationals.

Scalars follow one convention, decided only by ``exact``: an ``int`` when
the value is integral, otherwise a ``fractions.Fraction`` in lowest terms
with a positive denominator.  Integer data therefore stays in machine
integers end to end, and a quotient of two scalars must be written
``Fraction(a, b)``, since ``a / b`` of two ints is a float.  Reduced row
echelon forms and kernels come from one fraction-free Gauss-Jordan
elimination (Bareiss) of the rows with their denominators cleared.  Everything
downstream -- splitting types, dual identities, slope tables -- is decided
by exact ranks and kernels, so no floating point ever enters.

``pivot_columns``, and ``rank`` as its length, first eliminate modulo the
fixed prime ``PRIME``.  Reduction mod p can only lose rank, rank_p <=
rank_Q <= min(rows, cols), so a modular rank equal to min(rows, cols) is
the exact rank, and its pivot columns are independent over Q; any smaller
modular rank is discarded and a forward-only fraction-free elimination,
which never clears above a pivot, gives the exact pivot columns.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Rat = Fraction

# Below 2**30, so residues and the products of two of them stay small
# CPython ints in the modular elimination.
PRIME = 1073741789


def exact(x) -> int | Fraction:
    """The package's one scalar normalizer: x as an int when it is integral,
    otherwise as a Fraction.  Floats are refused, so an int / int that
    should have been Fraction(a, b) fails here instead of being rounded."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        raise TypeError(f"inexact scalar {x!r}; divide with Fraction(a, b)")
    q = x if type(x) is Fraction else Fraction(x)
    return q.numerator if q.denominator == 1 else q


def _integer_rows(rows: Iterable[Sequence]) -> list[Sequence[int]]:
    """Rows scaled by the lcm of their denominators: integer rows with the
    same row space.  Rows whose entries are all ints pass through as they are."""
    out = []
    for row in rows:
        if not {int}.issuperset(map(type, row)):
            den = lcm(*(x.denominator for x in row))
            row = [x.numerator * (den // x.denominator) for x in row]
        out.append(row)
    return out


def _bareiss(m: list[Sequence[int]], cols: int) -> tuple[list[Sequence[int]], tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows.

    A step with pivot p in column c replaces every other row by
    (p * row - row[c] * pivot_row) // prev, prev being the pivot before p.
    By Sylvester's identity every entry is then a minor of the integer
    matrix, so the division is exact.  Rows of `m` are replaced, never
    mutated.  Returns the integer rows, the pivot columns and the last pivot
    d; every pivot row ends with d at its own pivot column and 0 at the
    others, so rows / d is the RREF.
    """
    rows = len(m)
    pivots = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        k = next((i for i in range(r, rows) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(rows):
            f = m[i][c]
            if i == r or (not f and p == prev):
                continue
            m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], prow)]
        prev = p
        pivots.append(c)
    return m, tuple(pivots), prev


def _pivots_mod_p(m: list[Sequence[int]], cols: int) -> list[int]:
    """Pivot columns of integer rows over GF(PRIME), by forward elimination.

    Entries are reduced only when a row is updated, so a pivot is tested
    as nonzero mod p.  Rows below the current pivot are kept only from the
    column after the last pivot on, since their entries to its left are
    zero mod p.
    """
    p = PRIME
    work = list(m)
    rows = len(work)
    pivots = []
    off = 0
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        j = c - off
        k = next((i for i in range(r, rows) if work[i][j] % p), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        prow = work[r]
        inv = pow(prow[j], -1, p)
        tail = prow[j + 1:]
        for i in range(r + 1, rows):
            row = work[i]
            f = row[j] * inv % p
            if f:
                work[i] = [(a - f * b) % p for a, b in zip(row[j + 1:], tail)]
            else:
                work[i] = row[j + 1:]
        pivots.append(c)
        off = c + 1
    return pivots


def _pivots_fraction_free(m: list[Sequence[int]], cols: int) -> list[int]:
    """Exact pivot columns of integer rows by forward one-step Bareiss
    elimination.

    A step with pivot p replaces each row below it by
    (p * row - row[c] * pivot_row) // prev, prev being the pivot before p;
    as in `_bareiss`, every entry is then a minor, so the division is exact.
    A row with 0 in the pivot column is still scaled, to p * row // prev.
    Rows above the pivot are left alone, and rows below it are kept only
    right of the pivot column, as in `_pivots_mod_p`.
    """
    work = list(m)
    rows = len(work)
    pivots = []
    off = 0
    prev = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        j = c - off
        k = next((i for i in range(r, rows) if work[i][j]), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        prow = work[r]
        p = prow[j]
        tail = prow[j + 1:]
        for i in range(r + 1, rows):
            row = work[i]
            f = row[j]
            if f:
                work[i] = [(p * a - f * b) // prev for a, b in zip(row[j + 1:], tail)]
            elif p != prev:
                work[i] = [p * a // prev for a in row[j + 1:]]
            else:
                work[i] = row[j + 1:]
        prev = p
        pivots.append(c)
        off = c + 1
    return pivots


def pivot_columns(rows: Iterable[Sequence], cols: int) -> list[int]:
    """Ascending indices of columns that form a basis of the column space,
    for rows of ints or Fractions.

    The pivot columns mod PRIME are returned when they number min(rows,
    cols): a nonzero maximal minor mod p is nonzero over Q, so those
    columns are independent, and there are rank many.  Otherwise the
    forward fraction-free elimination gives the exact pivot columns.
    """
    m = _integer_rows(rows)
    pivots = _pivots_mod_p(m, cols)
    if len(pivots) == min(len(m), cols):
        return pivots
    return _pivots_fraction_free(m, cols)


def rank(rows: Iterable[Sequence], cols: int) -> int:
    """Exact rank of a matrix given as rows of ints or Fractions."""
    return len(pivot_columns(rows, cols))


class QMatrix:
    """Immutable dense matrix of exact rationals, entries normalized by `exact`."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries: Iterable[Sequence], cols: int | None = None):
        """Rows of rationals; `cols` is required to disambiguate a matrix
        with zero rows but a positive number of columns."""
        data = tuple(tuple(map(exact, row)) for row in entries)
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else (cols or 0)
        for row in data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries: Sequence) -> "QMatrix":
        return cls([[x] for x in entries])

    def __getitem__(self, ij) -> int | Fraction:
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"QMatrix({self.rows}x{self.cols}: {body})"

    def transpose(self) -> "QMatrix":
        return QMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __mul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
        ot = other.data
        out = []
        for i in range(self.rows):
            srow = self.data[i]
            orow = []
            for j in range(other.cols):
                acc = 0
                for k in range(self.cols):
                    a = srow[k]
                    if a:
                        acc += a * ot[k][j]
                orow.append(acc)
            out.append(orow)
        return QMatrix(out, cols=other.cols)

    def scale(self, c) -> "QMatrix":
        c = exact(c)
        return QMatrix([[c * x for x in row] for row in self.data], cols=self.cols)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return QMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + other.scale(-1)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns."""
        m, pivots, d = _bareiss(_integer_rows(self.data), self.cols)
        return (
            QMatrix([[Fraction(x, d) for x in row] for row in m], cols=self.cols),
            pivots,
        )

    def rank(self) -> int:
        return rank(self.data, self.cols)

    def kernel_basis(self) -> list["QMatrix"]:
        """Basis of the right null space, as column vectors.

        len(result) == cols - rank; each v satisfies self * v == 0.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [0] * self.cols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -red.data[r][fc]
            basis.append(QMatrix.column(v))
        return basis


class RowSpan:
    """Incrementally built row space with exact membership tests.

    ``add`` keeps a vector when it raises the rank of the stored rows and
    reports whether it did.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: list[list] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence) -> bool:
        v = list(vec)
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        if QMatrix(self._rows + [v], cols=self.dim).rank() == self.rank:
            return False
        self._rows.append(v)
        return True
