"""Dense exact linear algebra over the rationals.

Scalars follow one convention, decided only by ``exact``: an ``int`` when
the value is integral, otherwise a ``fractions.Fraction`` in lowest terms
with a positive denominator.  Integer data therefore stays in machine
integers end to end, and a quotient of two scalars must be written
``Fraction(a, b)``, since ``a / b`` of two ints is a float.  Everything
downstream -- splitting types, dual identities, slope tables -- is decided
by exact ranks and kernels, so no floating point ever enters.

The one exact elimination, ``_echelon``, is a forward fraction-free
(Bareiss) pass over the rows with their denominators cleared.  It has two
callers: ``rref``, which finishes it by back-substitution in integers and
serves ``kernel_basis`` and ``gradedmap.binary_gcd``, and the last resort
of ``pivot_columns`` below.

``pivot_columns``, and ``rank`` as its length, rest on forward
elimination modulo the primes of the fixed table ``PRIMES``: the twelve
largest primes p = 2^30 - c, c = 35, 41, ..., 257.  Below 2^30 a row
multiplier is one CPython digit.  Each row is packed into one int of
fixed-width fields, one per column.  A step adds a multiple of the pivot
row's fields right of its column to each row below it, without reducing
the sum.  A row's fields at or left of an eliminated column are never
read again, so a step multiplies and adds only the columns still ahead:
it drops the fields left of them from the pivot row and from each row it
updates, and leaves them stale in the others.  The width w is chosen so
that no field can carry into the next within min(rows, cols) updates
(72 bits for up to 2048 updates), and a pivot row is reduced,
field-wise, before it updates the rows below it.  2^30 = c mod p, so a
fold round is shifts, masks and a multiplication by c; ``_layout``
counts the rounds that bring a w-bit field below 2p (two at w = 72,
three at w = 80), and a row of residues is left as it is.

Reduction mod p can only lose rank, rank_p <= rank_Q, and the modular
pivot columns have a nonzero minor mod p, so they are independent over
Q.  A modular rank equal to min(rows, cols) is therefore exact; the
first prime of the table settles it.  A smaller one is certified by its
own left kernel: the elimination's steps, replayed on the row
transforms, give one vector mod p per vanished row, with 1 in that row's
own entry and 0 in every other vanished row's entry, so the vectors are
independent.  Primes whose pivot columns and vanished rows agree give
vectors that are combined by CRT modulo M, the product of those primes.
Each combined vector is lifted to an integer vector y, its entries
recovered by rational reconstruction as n / e with |n|, e <= isqrt(M //
2) and e prime to M, and scaled by a common denominator.  y . A = 0 mod
M by construction; it is 0 over Z when |y| times the largest entry of
each row, summed, stays below M, and otherwise the product is summed
exactly.  rows - r independent integer vectors with y . A = 0 give
rank_Q <= r, so the modular pivots are a basis.

The next prime of the table is eliminated only while a lift or a
product fails.  A prime with a higher modular rank than the vectors
held, or the same rank with other pivot columns or other vanished rows,
restarts the CRT from its own vectors; one with a lower rank is
skipped.  The table is finite, so this ends: after its last prime,
``_echelon`` gives the exact pivot columns.  The table suffices when the
normalized kernel entries, ratios of minors of A, have numerators and
denominators below 2^179 and no prime of it divides the minors they
come from.  Nothing here is probabilistic, and no float is used.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import index, mul
from struct import Struct
from typing import Iterable, Sequence

Rat = Fraction

# 2^30 = c mod p for each p = 2^30 - c of the table, so `_reduce` folds the
# bits of a field above 2^30 back in times c.
_SPLIT = 30
PRIMES = tuple(
    (1 << _SPLIT) - c for c in (35, 41, 83, 101, 105, 107, 135, 153, 161, 173, 203, 257)
)
# Rows of up to this many columns are packed by Horner's rule, which copies
# the growing int once per field; wider ones by `_row_struct`.
_HORNER_MAX = 24


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


@lru_cache(maxsize=256)
def _layout(k: int, fields: int, p: int) -> tuple[int, int, int, int]:
    """Field width w, the two masks of `_reduce` and its number of fold
    rounds, for packed rows of `fields` fields mod p = 2^30 - c that are
    updated at most k times.

    A field starts as a residue, below p.  An update adds at most p - 1
    times a field of a reduced row, which is below 2p, so after k updates
    a field is below 2p + 2kp^2 < 2^w, and no field carries into the next.
    w is a multiple of 8, for `_row_struct`: 72 for k <= 2^11, 96 for k <
    2^29.

    A fold round maps a field x to (x mod 2^30) + c (x >> 30), which is
    x mod p again and, for x <= B, at most B' = 2^30 - 1 + c (B >> 30).
    The rounds are counted by iterating B' from B = 2^w - 1 until B < 2p;
    B' < B for every B >= 2p, so the count is finite.  From w bits two
    rounds give B below 2^30 + c^2 2^(w - 60), which is below 2p = 2^31 -
    2c exactly when c^2 2^(w - 60) < 2^30 - 2c: at w = 72 for every c <
    511, so for the whole table, and at w = 80 for no c >= 32, so the
    table needs three rounds there.
    """
    c = (1 << _SPLIT) - p
    w = -(-(2 * p + 2 * k * p * p).bit_length() // 8) * 8
    rounds, top = 0, (1 << w) - 1
    while top >= 2 * p:
        top = (1 << _SPLIT) - 1 + c * (top >> _SPLIT)
        rounds += 1
    ones = ((1 << (fields * w)) - 1) // ((1 << w) - 1)
    return w, ((1 << _SPLIT) - 1) * ones, ((1 << (w - _SPLIT)) - 1) * ones, rounds


@lru_cache(maxsize=64)
def _row_struct(w: int, fields: int) -> Struct:
    """Packs `fields` values, each below 2^64, big-endian into w-bit fields,
    and unpacks them from fields below 2^64."""
    return Struct(">" + f"{w // 8 - 8}xQ" * fields)


def _reduce(x: int, low: int, high: int, fold: int, rounds: int) -> int:
    """x with every field brought below 2p and kept mod p = 2^30 - fold,
    for the masks and round count of `_layout`: each round adds the bits
    of a field above 2^30, times fold, to the bits below."""
    for _ in range(rounds):
        x = (x & low) + (x >> _SPLIT & high) * fold
    return x


def _pivots_mod_prime(
    m: list[Sequence[int]], cols: int, p: int
) -> tuple[list[int], list[int], list[list[int]]]:
    """Pivot columns of integer rows over GF(p) by one forward elimination,
    and, when they number less than min(rows, cols), the rows that
    vanished, ascending, with the left-kernel vector mod p behind each.

    Each row is one int of w-bit fields, column 0 in the top one.  A step
    at column c adds (p - f) times the pivot row's fields right of c to
    each row below it whose field at c is nonzero mod p, so fields grow
    lazily within the bound of `_layout`; the pivot row is cut to those
    fields and reduced first, which leaves residues as they are.  A row's
    fields at or left of c are never read again: the search reads only
    columns after c, and the replay only the steps.  So an updated row
    keeps only the fields right of c, and the others keep theirs stale.
    The steps are recorded, and only a deficient rank replays them on the
    row transforms, packed rows that start as the unit vectors.  A
    vanished row's transform has 1 in its own field, where no pivot row
    and no other vanished row is nonzero, so these vectors are
    independent.  The replay also follows the swaps, so each vanished row
    is named by its index in m.
    """
    rows = len(m)
    k = min(rows, cols)
    fold = (1 << _SPLIT) - p
    w, low, high, rounds = _layout(k, cols, p)
    fmask = (1 << w) - 1
    if cols > _HORNER_MAX:
        pack = _row_struct(w, cols).pack
        work = [int.from_bytes(pack(*map(p.__rmod__, row)), "big") for row in m]
    else:
        work = []
        for row in m:
            x = 0
            for v in row:
                x = (x << w) | (v % p)
            work.append(x)
    steps = []
    pivots = []
    r = 0
    for c in range(cols):
        off = (cols - 1 - c) * w
        for i in range(r, rows):
            v = (work[i] >> off & fmask) % p
            if v:
                break
        else:
            continue
        work[r], work[i] = work[i], work[r]
        pivots.append(c)
        r += 1
        if r == k:
            return pivots, [], []
        inv = 0
        ups = []
        for j in range(i + 1, rows):
            x = work[j] >> off & fmask
            if x:
                if not inv:
                    inv = pow(v, -1, p)
                    ahead = (1 << off) - 1
                    prow = _reduce(work[r - 1] & ahead, low, high, fold, rounds)
                g = p - x * inv % p
                if g != p:
                    work[j] = (work[j] & ahead) + g * prow
                    ups.append((j, g))
        steps.append((i, ups))
    w, low, high, rounds = _layout(k, rows, p)
    trans = [1 << (j * w) for j in range(rows)]
    perm = list(range(rows))
    for s, (i, ups) in enumerate(steps):
        trans[s], trans[i] = trans[i], trans[s]
        perm[s], perm[i] = perm[i], perm[s]
        if ups:
            prow = _reduce(trans[s], low, high, fold, rounds)
        for j, g in ups:
            trans[j] += g * prow
    unpack = _row_struct(w, rows).unpack
    size = rows * w // 8
    vanished = sorted(range(r, rows), key=perm.__getitem__)
    kernel = []
    for s in vanished:
        fields = unpack(_reduce(trans[s], low, high, fold, rounds).to_bytes(size, "big"))
        kernel.append([x % p for x in reversed(fields)])
    return pivots, [perm[s] for s in vanished], kernel


def _crt(xs: list[list[int]], modulus: int, ys: list[list[int]], p: int) -> list[list[int]]:
    """The vectors congruent to xs mod `modulus` and to ys mod p, entry for
    entry, each entry in [0, modulus * p)."""
    inv = pow(modulus, -1, p)
    return [[x + modulus * ((y - x) * inv % p) for x, y in zip(u, v)] for u, v in zip(xs, ys)]


def _lift(y: list[int], modulus: int) -> list[int] | None:
    """An integer vector congruent mod `modulus` to d y for some d prime to
    it, or None.

    A running denominator d is kept: d * y_i mod M is taken as it is when
    it lies within bound = isqrt(M // 2).  Otherwise y_i itself is
    reconstructed as n / e with |n|, e <= bound and e prime to M, or None
    is returned; d becomes lcm(d, e), the entries so far are rescaled to
    match, and n * (d // e) is appended.  So d stays prime to M, and an
    entry 1 of y, where every other vector of its kernel is 0, lifts to a
    nonzero entry.
    """
    half = modulus >> 1
    bound = isqrt(half)
    out: list[int] = []
    den = 1
    for u in y:
        v = u * den % modulus
        if v > half:
            v -= modulus
        if -bound <= v <= bound:
            out.append(v)
            continue
        r0, r1, t0, t1 = modulus, u, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if t1 < 0:
            r1, t1 = -r1, -t1
        if t1 > bound or gcd(t1, modulus) != 1:
            return None
        grow = t1 // gcd(den, t1)
        if grow > 1:
            out = [x * grow for x in out]
            den *= grow
        out.append(r1 * (den // t1))
    return out


def _kernel_certified(m: list[Sequence[int]], kernel: list[list[int]], modulus: int) -> bool:
    """Whether every vector of `kernel`, a left kernel of m mod `modulus`,
    lifts to an integer y with y . m = 0.

    Every vector is lifted before any is checked, so a failed lift, the
    common refusal, costs no product.  y . m is 0 mod M, since y is
    congruent to a multiple of a left-kernel vector mod M.  So it is 0
    when sum_i |y_i| max_j |m_ij|, which bounds each of its entries, is
    below M; otherwise it is summed exactly.
    """
    lifted = []
    for y in kernel:
        v = _lift(y, modulus)
        if v is None:
            return False
        lifted.append(v)
    sizes = [max(max(row), -min(row)) for row in m]
    columns = None
    for v in lifted:
        if sum(map(mul, map(abs, v), sizes)) >= modulus:
            columns = columns or list(zip(*m))
            if any(sum(map(mul, v, col)) for col in columns):
                return False
    return True


def _echelon(m: list[Sequence[int]], cols: int) -> tuple[list[int], list[Sequence[int]]]:
    """Exact pivot columns of integer rows, and the rows, by one forward
    fraction-free (one-step Bareiss) elimination.

    A step with pivot p in column c replaces each row below it by
    (p * row - row[c] * pivot_row) // prev, prev being the pivot before p.
    By Sylvester's identity every entry is then a minor of the integer
    matrix, so the division is exact.  A row with 0 in the pivot column is
    still scaled, to p * row // prev.  Rows above the pivot are left alone;
    rows below it are replaced by their part right of the pivot column,
    since the rest is 0.  So pivot row k holds the columns right of pivot
    k - 1, and the rows after the last pivot row are 0.
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
    return pivots, work


def pivot_columns(rows: Iterable[Sequence], cols: int) -> list[int]:
    """Ascending indices of columns that form a basis of the column space,
    for rows of ints or Fractions.

    The pivot columns mod a prime of `PRIMES` are independent over Q,
    since they have a nonzero minor mod p.  They are returned when they
    number min(rows, cols), or when the left-kernel vectors of the
    vanished rows, combined by CRT over the primes that agree with them,
    lift to integer vectors that annihilate the rows, which bounds the
    rank by their number.  A further prime is eliminated only while that
    fails; after the last, `_echelon` gives the exact pivot columns.
    """
    m = _integer_rows(rows)
    if not m or not cols:
        return []
    held = None
    for p in PRIMES:
        pivots, vanished, kernel = _pivots_mod_prime(m, cols, p)
        if not vanished:
            return pivots
        if held == (pivots, vanished):
            crt = _crt(crt, modulus, kernel, p)
            modulus *= p
        elif held is None or len(pivots) >= len(held[0]):
            held, crt, modulus = (pivots, vanished), kernel, p
        else:
            continue
        if _kernel_certified(m, crt, modulus):
            return pivots
    return _echelon(m, cols)[0]


def rank(rows: Iterable[Sequence], cols: int) -> int:
    """Exact rank of a matrix given as rows of ints or Fractions."""
    return len(pivot_columns(rows, cols))


class QMatrix:
    """Immutable dense matrix of exact rationals, entries normalized by `exact`."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries: Iterable[Sequence], cols: int | None = None):
        """Rows of rationals; `cols`, an integer, is required to disambiguate
        a matrix with zero rows but a positive number of columns, and must
        match the row width when given.  A row whose cells are all ints is
        kept as it is; `exact` normalizes the others."""
        data = tuple(
            row if {int}.issuperset(map(type, row)) else tuple(map(exact, row))
            for row in map(tuple, entries)
        )
        if cols is None:
            cols = len(data[0]) if data else 0
        elif (cols := index(cols)) < 0:
            raise ValueError(f"negative column count {cols}")
        self.data = data
        self.rows = len(data)
        self.cols = cols
        for row in data:
            if len(row) != cols:
                raise ValueError(f"ragged rows: width {len(row)}, expected {cols}")

    @staticmethod
    def _trusted(rows: Iterable[Sequence], cols: int) -> "QMatrix":
        """A matrix whose rows all have width `cols` and whose cells are
        already ints or reduced Fractions by `exact`: a transpose, an
        `rref`, a stratum of a graded map, or cells divided by
        `symlin._quotient`.

        The rows are stored as tuples, as the public constructor does, but
        neither their widths nor their cells are checked again.  A sum or
        product of Fractions can be an integral Fraction, so `__mul__`,
        `__add__` and `scale` keep the public constructor, as does every
        matrix built from values from outside the package.
        """
        out = object.__new__(QMatrix)
        out.data = tuple(map(tuple, rows))
        out.rows = len(out.data)
        out.cols = cols
        return out

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
        return QMatrix._trusted(zip(*self.data) if self.data else [()] * self.cols, self.rows)

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
        """Reduced row echelon form and pivot columns.

        Pivot row k of `_echelon` gets back its pivots[k - 1] + 1 trimmed
        zeros.  From the last pivot up, the pivot row with pivot p in column
        c clears column c of each row above it, row <- p * row - row[c] *
        pivot_row, divided by its content; this keeps the row space and the
        pivots.  Each row is then divided by its own pivot.
        """
        pivots, work = _echelon(_integer_rows(self.data), self.cols)
        red = [[0] * (self.cols - len(row)) + list(row) for row in work[: len(pivots)]]
        for k in range(len(pivots) - 1, 0, -1):
            prow = red[k]
            c = pivots[k]
            p = prow[c]
            for i in range(k):
                f = red[i][c]
                if f:
                    row = [p * a - f * b for a, b in zip(red[i], prow)]
                    g = gcd(*row)
                    red[i] = [a // g for a in row]
        out = []
        for c, row in zip(pivots, red):
            d = row[c]
            out.append([a // d if not a % d else Fraction(a, d) for a in row])
        out += [[0] * self.cols] * (self.rows - len(pivots))
        return QMatrix._trusted(out, self.cols), tuple(pivots)

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
