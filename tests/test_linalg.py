from collections import Counter
from fractions import Fraction
from itertools import chain
from math import isqrt, prod
from operator import mul

import pytest

from veronese import linalg
from veronese.linalg import PRIMES, QMatrix, RowSpan, rank
from veronese.prng import SplitMix64

# The prime of every elimination, and the modulus of a CRT over the whole table.
PRIME = PRIMES[0]
TABLE = prod(PRIMES)


def _bitsize(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _reference_rref(rows, cols):
    """Fraction Gauss-Jordan, pivoting on the candidate of smallest
    numerator/denominator bit size: the elimination QMatrix used before it
    went fraction-free, kept as an independent oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(m):
            break
        best, best_sz = -1, None
        for i in range(r, len(m)):
            if m[i][c]:
                sz = _bitsize(m[i][c])
                if best_sz is None or sz < best_sz:
                    best, best_sz = i, sz
        if best < 0:
            continue
        m[r], m[best] = m[best], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        prow = m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], prow)]
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def _random_entry(rng, rational):
    num = rng.next_int(-6, 6)
    return Fraction(num, rng.next_int(1, 5)) if rational else num


def _oracle_matrices(count):
    """Seeded matrices: integer and rational entries, low-rank products of
    random factors, planted zero rows and columns, empty shapes, and
    negative entries (so negative pivots) throughout."""
    rng = SplitMix64(31)
    for k in range(count):
        rows, cols = rng.next_int(0, 7), rng.next_int(0, 7)
        rational = k % 2 == 1
        if k % 3 == 2 and rows and cols:
            inner = rng.next_int(1, min(rows, cols))
            a = [[_random_entry(rng, rational) for _ in range(inner)] for _ in range(rows)]
            b = [[_random_entry(rng, rational) for _ in range(cols)] for _ in range(inner)]
            m = [
                [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
                for i in range(rows)
            ]
        else:
            m = [[_random_entry(rng, rational) for _ in range(cols)] for _ in range(rows)]
        if k % 5 == 4 and rows and cols:
            zero_row, zero_col = rng.next_below(rows), rng.next_below(cols)
            m[zero_row] = [0] * cols
            for row in m:
                row[zero_col] = 0
        yield m, cols


def test_rref_identity():
    red, pivots = QMatrix.identity(2).rref()
    assert red == QMatrix.identity(2)
    assert pivots == (0, 1)


def test_rref_rank_one():
    red, pivots = QMatrix([[1, 2], [2, 4]]).rref()
    assert red == QMatrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_permutation():
    red, pivots = QMatrix([[0, 1], [1, 0]]).rref()
    assert red == QMatrix.identity(2)
    assert pivots == (0, 1)


def test_rref_idempotent():
    m = QMatrix([[2, 4, 1], [3, 7, 2], [5, 11, 3]])
    red, _ = m.rref()
    again, _ = red.rref()
    assert red == again


def test_kernel_rank_one():
    (v,) = QMatrix([[1, 2], [2, 4]]).kernel_basis()
    # proportional to (-2, 1)
    assert v[(0, 0)] * 1 == v[(1, 0)] * -2


def test_kernel_identity_empty():
    assert QMatrix.identity(3).kernel_basis() == []


def test_kernel_zero_matrix():
    assert len(QMatrix.zero(2, 3).kernel_basis()) == 3


def test_kernel_vectors_annihilated_and_counted():
    rng = SplitMix64(9)
    for _ in range(50):
        rows = rng.next_int(1, 5)
        cols = rng.next_int(1, 5)
        m = QMatrix(
            [[rng.next_int(-4, 4) for _ in range(cols)] for _ in range(rows)]
        )
        basis = m.kernel_basis()
        assert m.rank() + len(basis) == cols
        for v in basis:
            assert (m * v).is_zero()


def test_zero_row_matrix_keeps_columns():
    m = QMatrix([], cols=3)
    assert (m.rows, m.cols) == (0, 3)
    assert m.rank() == 0
    assert len(m.kernel_basis()) == 3
    assert m.transpose().rows == 3 and m.transpose().cols == 0
    with pytest.raises(ValueError):
        QMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError):
        QMatrix([], cols=-2)
    for cols in (2.5, 2.0):
        with pytest.raises(TypeError):
            QMatrix([], cols=cols)
    with pytest.raises(TypeError):
        QMatrix([[1, 2]], cols=2.0)


def test_zero_dimension_products():
    a = QMatrix([], cols=2)          # 0 x 2
    b = QMatrix([[1, 2], [3, 4]])
    assert (a * b).rows == 0 and (a * b).cols == 2
    c = b.transpose() * a.transpose()  # 2x2 * 2x0 -> 2x0
    assert (c.rows, c.cols) == (2, 0)


def test_matmul_exact_fractions():
    a = QMatrix([[Fraction(1, 2), Fraction(1, 3)]])
    b = QMatrix([[Fraction(2)], [Fraction(3)]])
    assert (a * b)[(0, 0)] == 2


def _cell_types(m):
    return [[type(x) for x in row] for row in m.data]


def test_scale_add_sub_keep_exact_cells():
    a = QMatrix([[2, -4], [6, 0]])
    b = QMatrix([[1, Fraction(1, 3)], [0, 5]])
    half = a.scale(Fraction(1, 2))
    assert half == QMatrix([[1, -2], [3, 0]])
    assert _cell_types(half) == [[int, int], [int, int]]
    assert _cell_types(a.scale(3)) == [[int, int], [int, int]]
    assert a.scale(Fraction(1, 4)).data == ((Fraction(1, 2), -1), (Fraction(3, 2), 0))
    total = a + b
    assert total.data == ((3, Fraction(-11, 3)), (6, 5))
    assert _cell_types(total) == [[int, Fraction], [int, int]]
    diff = b - b.scale(Fraction(2, 3))
    assert diff.data == ((Fraction(1, 3), Fraction(1, 9)), (0, Fraction(5, 3)))
    # a Fraction cell that cancels to an integer comes back an int
    assert _cell_types(b + QMatrix([[0, Fraction(2, 3)], [0, 0]])) == [[int, int], [int, int]]
    for m in (a, b, QMatrix([], cols=2), QMatrix.zero(2, 0)):
        assert (m - m).is_zero()
        assert ((m - m).rows, (m - m).cols) == (m.rows, m.cols)


def test_scale_refuses_floats_and_add_checks_shapes():
    with pytest.raises(TypeError):
        QMatrix([[2]]).scale(0.5)
    with pytest.raises(ValueError, match="shape mismatch"):
        QMatrix([[1, 2]]) + QMatrix([[1], [2]])
    with pytest.raises(ValueError, match="shape mismatch"):
        QMatrix([], cols=2) - QMatrix([], cols=3)


def test_rowspan_membership():
    span = RowSpan(3)
    assert span.add([1, 0, 1])
    assert span.add([0, 1, 0])
    assert not span.add([1, 1, 1])
    assert span.rank == 2
    assert span.add([0, 0, 1])
    assert span.rank == 3


def test_elimination_matches_fraction_reference():
    shapes = set()
    deficient = negative_pivot = 0
    for rows, cols in chain(_oracle_matrices(600), _scaled_pivot_matrices(), _fallback_matrices()):
        m = QMatrix(rows, cols=cols)
        ref_rows, ref_pivots = _reference_rref(rows, cols)
        red, pivots = m.rref()
        assert pivots == ref_pivots
        assert red == QMatrix(ref_rows, cols=cols)
        assert m.rank() == len(ref_pivots)
        assert rank(rows, cols) == len(ref_pivots)
        free = [c for c in range(cols) if c not in ref_pivots]
        basis = m.kernel_basis()
        assert len(basis) == len(free)
        for fc, v in zip(free, basis):
            for r, pc in enumerate(ref_pivots):
                assert v[(pc, 0)] == -ref_rows[r][fc]
            assert (m * v).is_zero()
        shapes.add((m.rows == 0, m.cols == 0))
        deficient += len(pivots) < min(m.rows, m.cols)
        if pivots:
            negative_pivot += next(row[pivots[0]] for row in rows if row[pivots[0]]) < 0
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}
    assert deficient >= 50 and negative_pivot >= 50


def _wide_matrices():
    """Seeded integer matrices of 40 to 96 columns, square, wide and tall in
    turn: random entries, and products of random factors through an inner
    dimension below min(rows, cols), half of each with zero columns
    planted, so that most pivots have many fields left of them."""
    rng = SplitMix64(107)
    for k in range(12):
        cols = rng.next_int(40, 96)
        rows = (cols, rng.next_int(20, cols - 1), rng.next_int(cols + 1, cols + 30))[k % 3]
        if k % 2:
            inner = rng.next_int(1, min(rows, cols) - 1)
            a = [[rng.next_int(-6, 6) for _ in range(inner)] for _ in range(rows)]
            b = [[rng.next_int(-6, 6) for _ in range(cols)] for _ in range(inner)]
            m = [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]
        else:
            m = [[rng.next_int(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if k % 4 >= 2:
            for c in {rng.next_below(cols) for _ in range(5)}:
                for row in m:
                    row[c] = 0
        yield m, cols


def _independent(rows, cols, picked) -> bool:
    sub = [[row[c] for c in picked] for row in rows]
    return len(_reference_rref(sub, len(picked))[1]) == len(picked)


def test_pivot_columns_form_a_basis():
    """The forward fraction-free pivots are the reference pivots; the
    columns `pivot_columns` picks are independent and rank many, also
    when the modular pivots differ from the rational ones."""
    matrices = list(_oracle_matrices(600)) + list(_fallback_matrices())
    for rows, cols in matrices:
        _, ref_pivots = _reference_rref(rows, cols)
        exact_pivots = linalg._echelon(linalg._integer_rows(rows), cols)[0]
        assert exact_pivots == list(ref_pivots)
        picked = linalg.pivot_columns(rows, cols)
        assert picked == sorted(set(picked))
        assert len(picked) == len(ref_pivots)
        assert _independent(rows, cols, picked)
    full = 0
    for rows, cols in _wide_matrices():
        picked = linalg.pivot_columns(rows, cols)
        assert picked == sorted(set(picked))
        assert len(picked) == len(linalg._echelon(rows, cols)[0])
        sub = [[row[c] for c in picked] for row in rows]
        assert len(linalg._echelon(sub, len(picked))[0]) == len(picked)
        full += len(picked) == min(len(rows), cols)
    assert 0 < full < 12
    # column 0 vanishes mod PRIME, so the modular pivot is column 1
    assert linalg.pivot_columns([[PRIME, 1]], 2) == [1]
    assert linalg._echelon([[PRIME, 1]], 2)[0] == [0]


def test_rowspan_agrees_with_rank():
    rng = SplitMix64(17)
    for _ in range(100):
        dim = rng.next_int(0, 6)
        span = RowSpan(dim)
        added = []
        for _ in range(rng.next_int(1, 8)):
            if added and rng.next_int(0, 2) == 0:
                # an integer combination of earlier rows never enlarges the span
                a, b = rng.next_below(len(added)), rng.next_below(len(added))
                vec = [x + rng.next_int(-2, 2) * y for x, y in zip(added[a], added[b])]
            else:
                vec = [_random_entry(rng, rng.next_int(0, 1) == 1) for _ in range(dim)]
            before = QMatrix(added, cols=dim).rank()
            after = QMatrix(added + [vec], cols=dim).rank()
            assert span.add(vec) == (after > before)
            added.append(vec)
            assert span.rank == after
    with pytest.raises(ValueError, match="dimension mismatch"):
        RowSpan(3).add([1, 2])


def _fallback_matrices():
    """Matrices whose rank mod every prime of the table is below min(rows,
    cols), so that linalg.rank must fall back to the exact elimination:
    entries that are multiples of TABLE, the product of the primes, a
    determinant TABLE, a denominator TABLE, and rank-deficient products
    whose first factor has a column of multiples of TABLE."""
    yield [[TABLE]], 1
    yield [[1, 1], [1, 1 + TABLE]], 2
    yield [[Fraction(1, TABLE), 1], [1, TABLE]], 2
    rng = SplitMix64(61)
    for k in range(60):
        rows, cols = rng.next_int(2, 7), rng.next_int(2, 7)
        if k % 2 == 0:
            yield [[TABLE * rng.next_int(-6, 6) for _ in range(cols)] for _ in range(rows)], cols
            continue
        inner = rng.next_int(1, min(rows, cols) - 1)
        a = [[_random_entry(rng, False) for _ in range(inner)] for _ in range(rows)]
        b = [[_random_entry(rng, False) for _ in range(cols)] for _ in range(inner)]
        for row in a:
            row[0] *= TABLE
        yield [
            [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)
        ], cols


def _scaled_pivot_matrices():
    """Rank-deficient tall and wide integer matrices on which the forward
    fraction-free elimination meets a row below a pivot p != prev with 0 in
    the pivot column, which must still be scaled by p / prev.  linalg.rank
    certifies their modular ranks, so `_echelon` is also called on them
    directly.

    The first two are hand-made.  In both, pivot 3 over prev 1 and then
    pivot 2 over prev 3 have a zero below them, and the rows scaled by
    2 / 3, which is not an integer, are needed for the rank.  The rest are
    products of sparse integer factors with inner dimension below
    min(rows, cols)."""
    # last row = first + second
    wide = [
        [3, 1, 0, 1, 1, 1],
        [1, 1, 1, 0, 1, 2],
        [0, 1, 1, 1, 0, 1],
        [3, 1, 1, 2, 1, 0],
        [4, 2, 1, 1, 2, 3],
    ]
    # rank 3: row 2 = row 3 - row 0, row 4 = row 0 + row 1, row 5 = row 1
    tall = [[3, 1, 0, 1], [1, 1, 1, 0], [0, 0, 1, 1], [3, 1, 1, 2], [4, 2, 1, 1], [1, 1, 1, 0]]
    for m in (wide, tall):
        yield m, len(m[0])
    rng = SplitMix64(71)
    for k in range(40):
        small, large = rng.next_int(3, 6), rng.next_int(6, 9)
        rows, cols = (large, small) if k % 2 else (small, large)
        inner = rng.next_int(2, min(rows, cols) - 1)
        a = [[rng.next_int(-4, 4) * rng.next_below(2) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.next_int(-4, 4) * rng.next_below(2) for _ in range(cols)] for _ in range(inner)]
        yield [
            [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)
        ], cols


def test_rank_exact_when_modular_rank_drops():
    for rows, cols in _scaled_pivot_matrices():
        want = len(QMatrix(rows, cols=cols).rref()[1])
        assert want < min(len(rows), cols)
        assert rank(rows, cols) == want
        _, ref_pivots = _reference_rref(rows, cols)
        assert linalg._echelon(linalg._integer_rows(rows), cols)[0] == list(ref_pivots)
    dropped = 0
    for rows, cols in _fallback_matrices():
        _, ref_pivots = _reference_rref(rows, cols)
        assert rank(rows, cols) == len(ref_pivots)
        assert QMatrix(rows, cols=cols).rank() == len(ref_pivots)
        m = linalg._integer_rows(rows)
        rank_p = max(len(linalg._pivots_mod_prime(m, cols, p)[0]) for p in PRIMES)
        assert rank_p < min(len(rows), cols)
        dropped += rank_p < len(ref_pivots)
    assert rank([[PRIME]], 1) == rank([[TABLE]], 1) == 1
    # the modular rank is strictly below the exact one on most of them
    assert dropped >= 40


def _spy(monkeypatch) -> Counter:
    """Counts of left-kernel certificates accepted and refused, of those
    refused with the table's last prime in their modulus ("exhausted"),
    and of fraction-free fallbacks, in calls of linalg.rank."""
    counts = Counter()
    certified = linalg._kernel_certified
    fraction_free = linalg._echelon

    def spy_certified(m, kernel, modulus):
        ok = certified(m, kernel, modulus)
        counts["certified" if ok else "refused"] += 1
        counts["exhausted"] += not ok and modulus % PRIMES[-1] == 0
        return ok

    def spy_fraction_free(m, cols):
        counts["bareiss"] += 1
        return fraction_free(m, cols)

    monkeypatch.setattr(linalg, "_kernel_certified", spy_certified)
    monkeypatch.setattr(linalg, "_echelon", spy_fraction_free)
    return counts


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: these twelve bases decide every n below
    3.3 * 10^24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_is_prime():
    """Every entry of the table is prime, and the table is the twelve
    largest primes below 2^30, in descending order."""
    for p in PRIMES:
        assert _is_prime(p), f"{p} is composite"
    below = [p for p in range(2**30 - 1, PRIMES[-1] - 1, -1) if _is_prime(p)]
    assert list(PRIMES) == below and len(PRIMES) == 12


def test_packed_fields_cannot_carry():
    """For every prime of the table: after k updates a field is below
    p + k (p - 1)(2p - 1), which the width of `_layout` holds; `_reduce`
    keeps every field mod p and brings it below 2p, also from the largest
    field the width holds, and one round fewer does not."""
    for p in PRIMES:
        fold = 2**30 - p
        for k in range(1, 400):
            w, _, _, _ = linalg._layout(k, 1, p)
            assert p + k * (p - 1) * (2 * p - 1) < 1 << w
            assert w % 8 == 0
        assert linalg._layout(56, 1, p)[0] == linalg._layout(2**11, 1, p)[0] == 72
        assert linalg._layout(2**11 + 1, 1, p)[0] == 80
        assert linalg._layout(2**29 - 1, 1, p)[0] <= 96
        for k in (1, 40, 2**11, 2**11 + 1, 2**19, 2**29 - 1):
            w, low, high, rounds = linalg._layout(k, 5, p)
            assert rounds == {64: 2, 72: 2, 80: 3}.get(w, rounds)
            fields = [(1 << w) - 1, p, 2 * p - 1, (1 << w) // 3, 0]
            x = sum(f << (w * i) for i, f in enumerate(fields))
            y = linalg._reduce(x, low, high, fold, rounds)
            out = [(y >> (w * i)) & ((1 << w) - 1) for i in range(5)]
            assert y >> (5 * w) == 0
            assert all(f < 2 * p for f in out)
            assert [f % p for f in out] == [f % p for f in fields]
            short = linalg._reduce(x, low, high, fold, rounds - 1) & ((1 << w) - 1)
            assert short >= 2 * p


def _reference_pivots_mod_prime(m, cols, p):
    """Gaussian elimination mod p on lists, every entry reduced, each row
    carrying its transform and its index: the row swaps and updates of
    the packed pass."""
    rows = len(m)
    work = [
        [x % p for x in row] + [int(i == j) for j in range(rows)] + [i] for i, row in enumerate(m)
    ]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, rows) if work[i][c]), None)
        if i is None:
            continue
        work[r], work[i] = work[i], work[r]
        pivots.append(c)
        if r + 1 == min(rows, cols):
            return pivots, [], []
        inv = pow(work[r][c], -1, p)
        for j in range(r + 1, rows):
            f = work[j][c] * inv % p
            if f:
                work[j] = [(a - f * b) % p for a, b in zip(work[j][:-1], work[r])] + work[j][-1:]
    vanished = sorted(work[len(pivots):], key=lambda row: row[-1])
    return pivots, [row[-1] for row in vanished], [row[cols:-1] for row in vanished]


def test_modular_kernel_vectors():
    """A deficient modular rank comes with one vector per vanished row; each
    is 0 against the rows mod p, has 1 in its own row's entry and 0 in
    every other vanished row's, so they are independent.  The packed pass,
    whose steps drop the fields left of the pivot, gives the pivots,
    vanished rows and vectors of the plain elimination, entry for entry,
    for the first and the last prime of the table."""
    deficient = 0
    matrices = chain(
        _oracle_matrices(600), _fallback_matrices(), _scaled_pivot_matrices(), _wide_matrices()
    )
    for rows, cols in matrices:
        m = linalg._integer_rows(rows)
        if not m or not cols:
            continue
        for p in (PRIMES[0], PRIMES[-1]):
            pivots, vanished, kernel = linalg._pivots_mod_prime(m, cols, p)
            assert (pivots, vanished, kernel) == _reference_pivots_mod_prime(m, cols, p)
            if len(pivots) == min(len(m), cols):
                assert vanished == kernel == []
                continue
            deficient += 1
            assert len(kernel) == len(vanished) == len(m) - len(pivots)
            assert vanished == sorted(set(vanished))
            for i, y in zip(vanished, kernel):
                assert all(sum(a * b for a, b in zip(y, col)) % p == 0 for col in zip(*m))
                assert [y[j] for j in vanished] == [int(j == i) for j in vanished]
    assert deficient >= 400


def test_certificate_and_fallback_both_run(monkeypatch):
    """Over the oracle, fallback and scaled matrices, deficient modular
    ranks are certified by their left kernels, and the fraction-free
    elimination runs exactly when the certificate is refused with the
    table's last prime."""
    counts = _spy(monkeypatch)
    matrices = chain(_oracle_matrices(600), _fallback_matrices(), _scaled_pivot_matrices())
    for rows, cols in matrices:
        assert rank(rows, cols) == len(_reference_rref(rows, cols)[1])
    assert counts["bareiss"] == counts["exhausted"]
    assert counts["certified"] >= 150 and counts["exhausted"] >= 50


def test_lift_zero_mod_prime_is_refused(monkeypatch):
    """The vanished row lifts to (-1, 1) with every prime of the table,
    which is 0 mod TABLE against the rows but not over Z, so the rank
    stays 2."""
    counts = _spy(monkeypatch)
    m = [[1, 1], [1, 1 + TABLE]]
    for p in PRIMES:
        pivots, vanished, kernel = linalg._pivots_mod_prime(m, 2, p)
        assert (pivots, vanished) == ([0], [1])
        assert [linalg._lift(y, p) for y in kernel] == [[-1, 1]]
    assert rank(m, 2) == 2
    assert counts == Counter(refused=len(PRIMES), exhausted=1, bareiss=1)


def test_lift_beyond_bound_falls_back(monkeypatch):
    """Rows v and 2^180 v: the primitive left-kernel vector (2^180, -1) has
    an entry above the lift bound of the whole table, so the fraction-free
    elimination decides."""
    counts = _spy(monkeypatch)
    v = [3, -1, 4, 1, 5, -9]
    m = [v, [2**180 * x for x in v]]
    assert 2**180 > isqrt(TABLE // 2)
    assert linalg.pivot_columns(m, 6) == [0]
    assert counts == Counter(refused=len(PRIMES), exhausted=1, bareiss=1)


def test_lift_reconstructs_each_entry(monkeypatch):
    """Rows b u, e w and -(x u + z w) for primes b, e near 10^6: the
    primitive left-kernel vector (x e, z b, b e) has 40-bit entries, far
    above the lift bound of two primes, but each entry of the modular
    one, (x / b, z / e, 1), is a fraction within it.  Its denominators are
    above the bound of the first prime alone, so that prime is refused,
    the CRT over the first two certifies the rank, and the fraction-free
    elimination does not run."""
    counts = _spy(monkeypatch)
    b, e, x, z = 1000003, 999983, 3, 5
    u, w = (1, 2, 0, 1), (0, 1, 3, 1)
    m = [[b * a for a in u], [e * a for a in w], [-(x * a + z * c) for a, c in zip(u, w)]]
    p, q = PRIMES[:2]
    assert isqrt(p // 2) < b < isqrt(p * q // 2) < b * e
    (pivots, vanished, kp), (_, _, kq) = (linalg._pivots_mod_prime(m, 4, r) for r in (p, q))
    assert (pivots, vanished) == ([0, 1], [2])
    assert [linalg._lift(y, p) for y in kp] == [None]
    crt = linalg._crt(kp, p, kq, q)
    assert [linalg._lift(y, p * q) for y in crt] == [[x * e, z * b, b * e]]
    assert rank(m, 4) == 2
    assert counts == Counter(refused=1, certified=1)


def test_large_entries_certified_by_exact_product(monkeypatch):
    """Rows of residues near PRIME and small integer combinations of them:
    the kernel vectors are small, |y| times the entries is not below
    PRIME, and the exact product y . A = 0 certifies the rank."""
    rng = SplitMix64(89)
    cases = []
    for rows, cols, r in ((6, 9, 4), (9, 6, 3), (12, 12, 7)):
        base = [[rng.next_below(PRIME) for _ in range(cols)] for _ in range(r)]
        m = base + [
            [a - 2 * b for a, b in zip(base[rng.next_below(r)], base[rng.next_below(r)])]
            for _ in range(rows - r)
        ]
        assert len(linalg._echelon(m, cols)[0]) == r
        cases.append((m, cols, r))
    counts = _spy(monkeypatch)
    for m, cols, r in cases:
        assert rank(m, cols) == r
    assert counts == Counter(certified=3)


def test_worst_case_residues():
    """Entries PRIME - 1 everywhere and off the diagonal, random residues,
    and rank-deficient products of random residues, on 40x40, 60x20 and
    20x60 matrices: ranks equal the fraction-free ranks.  Entries p - 1
    everywhere and off the diagonal also give the ranks mod p for every
    prime p of the table."""
    rng = SplitMix64(97)
    for rows, cols in ((40, 40), (60, 20), (20, 60)):
        top = [[PRIME - 1] * cols for _ in range(rows)]
        assert rank(top, cols) == 1
        near = [[PRIME - 1 - (i == j) for j in range(cols)] for i in range(rows)]
        assert rank(near, cols) == min(rows, cols)
        for p in PRIMES:
            top = [[p - 1] * cols for _ in range(rows)]
            assert linalg._pivots_mod_prime(top, cols, p)[:2] == ([0], list(range(1, rows)))
            near = [[p - 1 - (i == j) for j in range(cols)] for i in range(rows)]
            assert len(linalg._pivots_mod_prime(near, cols, p)[0]) == min(rows, cols)
        full = [[rng.next_below(PRIME) for _ in range(cols)] for _ in range(rows)]
        inner = min(rows, cols) // 2
        a = [[rng.next_below(PRIME) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.next_below(PRIME) for _ in range(cols)] for _ in range(inner)]
        product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        for m, want in ((full, min(rows, cols)), (product, inner)):
            assert rank(m, cols) == len(linalg._echelon(m, cols)[0]) == want


def test_rank_metamorphic(monkeypatch):
    """On the oracle matrices the rank is unchanged by permuting the rows,
    by scaling a row by a nonzero integer, and by appending the sum of two
    rows; the appended row makes most modular ranks deficient, so the
    certificate runs on them."""
    counts = _spy(monkeypatch)
    rng = SplitMix64(101)
    appended = 0
    for rows, cols in _oracle_matrices(600):
        want = rank(rows, cols)
        if not rows:
            continue
        perm = list(rows)
        for i in range(len(perm) - 1, 0, -1):
            j = rng.next_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        assert rank(perm, cols) == want
        scaled = list(rows)
        i = rng.next_below(len(rows))
        c = rng.next_int(1, 9) * (1 if rng.next_below(2) else -1)
        scaled[i] = [c * x for x in rows[i]]
        assert rank(scaled, cols) == want
        a, b = rng.next_below(len(rows)), rng.next_below(len(rows))
        before = counts["certified"] + counts["refused"]
        assert rank(rows + [[x + y for x, y in zip(rows[a], rows[b])]], cols) == want
        appended += counts["certified"] + counts["refused"] > before
    assert appended >= 200


def _trail(monkeypatch) -> list:
    """(modulus, accepted) for each left-kernel certificate asked for, in
    order, and "bareiss" for each fraction-free fallback."""
    trail = []
    certified = linalg._kernel_certified
    fraction_free = linalg._echelon

    def spy_certified(m, kernel, modulus):
        ok = certified(m, kernel, modulus)
        trail.append((modulus, ok))
        return ok

    def spy_fraction_free(m, cols):
        trail.append("bareiss")
        return fraction_free(m, cols)

    monkeypatch.setattr(linalg, "_kernel_certified", spy_certified)
    monkeypatch.setattr(linalg, "_echelon", spy_fraction_free)
    return trail


@pytest.mark.parametrize("shift, primes", [(20, 2), (40, 3)])
def test_kernel_lift_adds_primes(monkeypatch, shift, primes):
    """Rows v, 2^shift v and 3 2^shift v: the left-kernel vectors
    (-2^shift, 1, 0) and (-3 2^shift, 0, 1) lift once isqrt(M // 2), M the
    product of the primes so far, passes 3 2^shift, so the CRT adds a
    prime until then and certifies with `primes` primes."""
    trail = _trail(monkeypatch)
    v = [3, -1, 4, 1, 5, -9]
    m = [v, [2**shift * x for x in v], [3 * 2**shift * x for x in v]]
    moduli = [prod(PRIMES[:k]) for k in range(1, primes + 1)]
    assert isqrt(moduli[-2] // 2) < 3 * 2**shift < isqrt(moduli[-1] // 2)
    assert linalg.pivot_columns(m, 6) == [0]
    assert trail == [(q, q == moduli[-1]) for q in moduli]


def test_next_prime_with_higher_rank_wins(monkeypatch):
    """The first prime divides a minor.  With a full rank at the second
    prime the pivots are returned at once; with a higher but deficient
    rank the CRT restarts from the second prime alone."""
    trail = _trail(monkeypatch)
    p, q = PRIMES[:2]
    assert linalg.pivot_columns([[1, 1], [1, 1 + p]], 2) == [0, 1]
    assert trail == [(p, False)]
    trail.clear()
    m = [[1, 1, 0], [1, 1 + p, 0], [2, 2 + p, 0]]
    assert linalg._pivots_mod_prime(m, 3, p)[:2] == ([0], [1, 2])
    assert linalg._pivots_mod_prime(m, 3, q)[:2] == ([0, 1], [2])
    assert linalg.pivot_columns(m, 3) == [0, 1]
    assert trail == [(p, False), (q, True)]


def test_prime_with_lower_rank_is_skipped(monkeypatch):
    """The second prime divides a minor, so its rank is lower than the
    first prime's; it is skipped, and the CRT combines the first prime
    with the third."""
    trail = _trail(monkeypatch)
    p, q, r = PRIMES[:3]
    m = [[1, 1, 0, 0], [1, 1 + q, 0, 0], [0, 0, 1, 2], [0, 0, 2**20, 2**21]]
    assert [len(linalg._pivots_mod_prime(m, 4, x)[0]) for x in (p, q, r)] == [3, 2, 3]
    assert linalg.pivot_columns(m, 4) == [0, 1, 2]
    assert trail == [(p, False), (p * r, True)]


def test_vanished_rows_that_differ_restart(monkeypatch):
    """Rows p (1, 2), (1, 2) and 3 (1, 2) with p the first prime: mod p the
    first row vanishes and the second is the pivot row, mod every other
    prime the first is, so the pivots agree and the vanished rows do not.
    The CRT restarts from the second prime; the kernel vectors (-1, p, 0)
    and (-3, 0, p) then lift with the second, third and fourth."""
    trail = _trail(monkeypatch)
    p, q, r, s = PRIMES[:4]
    m = [[p, 2 * p], [1, 2], [3, 6]]
    assert linalg._pivots_mod_prime(m, 2, p)[:2] == ([0], [0, 2])
    assert linalg._pivots_mod_prime(m, 2, q)[:2] == ([0], [1, 2])
    assert linalg.pivot_columns(m, 2) == [0]
    assert trail == [(p, False), (q, False), (q * r, False), (q * r * s, True)]


def test_crt_vectors_that_fail_the_exact_check(monkeypatch):
    """Rows (1, 1) and (1, 1 + pq) for the first two primes: the CRT vector
    over both lifts to (-1, 1), which is 0 mod pq against the rows but
    not over Z, so it is refused, and the third prime's full rank
    decides."""
    trail = _trail(monkeypatch)
    p, q = PRIMES[:2]
    m = [[1, 1], [1, 1 + p * q]]
    (_, _, kp), (_, _, kq) = (linalg._pivots_mod_prime(m, 2, x) for x in (p, q))
    assert [linalg._lift(y, p * q) for y in linalg._crt(kp, p, kq, q)] == [[-1, 1]]
    assert linalg.pivot_columns(m, 2) == [0, 1]
    assert trail == [(p, False), (p * q, False)]
