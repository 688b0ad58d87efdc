"""Dense exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` (always in lowest terms, positive
denominator); ranks, reduced row echelon forms and kernels all come from
one fraction-free elimination.  Everything downstream -- splitting types,
dual identities, slope tables -- is decided by exact ranks and kernels, so
no floating point ever enters.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Rat = Fraction


class QMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries: Iterable[Sequence], cols: int | None = None):
        """Rows of rationals; `cols` is required to disambiguate a matrix
        with zero rows but a positive number of columns."""
        data = tuple(tuple(Fraction(x) for x in row) for row in entries)
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

    def __getitem__(self, ij) -> Fraction:
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
                acc = Fraction(0)
                for k in range(self.cols):
                    a = srow[k]
                    if a:
                        acc += a * ot[k][j]
                orow.append(acc)
            out.append(orow)
        return QMatrix(out, cols=other.cols)

    def scale(self, c) -> "QMatrix":
        c = Fraction(c)
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

    def _eliminate(self) -> tuple[list[list[int]], tuple[int, ...], int]:
        """Fraction-free Gauss-Jordan elimination (Bareiss 1968).

        Each row is first scaled by the lcm of its denominators, which keeps
        the row space and makes every entry an integer.  A step with pivot
        p in column c replaces every other row by
        (p * row - row[c] * pivot_row) // prev, prev being the pivot before
        p.  By Sylvester's identity every entry is then a minor of the
        integer matrix, so the division is exact.  Returns the integer rows,
        the pivot columns and the last pivot d; every pivot row ends with d
        at its own pivot column and 0 at the others, so rows / d is the RREF.
        """
        m = []
        for row in self.data:
            den = lcm(*(x.denominator for x in row))
            m.append([x.numerator * (den // x.denominator) for x in row])
        rows = len(m)
        pivots = []
        prev = 1
        for c in range(self.cols):
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

    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns."""
        m, pivots, d = self._eliminate()
        return (
            QMatrix([[Fraction(x, d) for x in row] for row in m], cols=self.cols),
            pivots,
        )

    def rank(self) -> int:
        return len(self._eliminate()[1])

    def kernel_basis(self) -> list["QMatrix"]:
        """Basis of the right null space, as column vectors.

        len(result) == cols - rank; each v satisfies self * v == 0.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
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
