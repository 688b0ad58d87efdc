"""Symmetric powers of exact sequences: dualizing commutes with symmetrizing.

For a short exact sequence 0 -> M -> N -> P -> 0 of rational vector spaces
there are two routes to the induced sequence on i-th symmetric powers of
duals: symmetrize the quotient map and dualize, or dualize first and
symmetrize the dualized surjection.  Both routes are realized here as
explicit matrices on monomial bases and compared entry by entry.

The identification of (Sym^i W)^* with Sym^i(W^*) uses the averaging
pairing <w_1...w_i, l_1...l_i> = (1/i!) sum over permutations of the
products l_{sigma(k)}(w_k); on monomials this pairing is diagonal with
entry a!/i! at the exponent vector a.  Both symmetrize-then-dualize routes
are one weighted transpose, `_dualize`, by these weights on each side; the
other two routes share no code with it but the exact division `_quotient`.

All arithmetic stays exact, and for integer maps it stays in ints: the
weighted transpose and the peel-one-factor formula each form integer
numerators and divide once per entry, building a Fraction only where that
division is not exact.  `random_ses` gives psi primitive integer rows, so
the four routes that `verify` compares never multiply Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .linalg import QMatrix, _integer_rows, exact
from .poly import HomPoly, monomial_images, monomial_index, monomials
from .prng import SplitMix64


@dataclass(frozen=True)
class LinearSES:
    """0 -> M --phi--> N --psi--> P -> 0 with exactness checked."""

    phi: QMatrix  # n x m, injective
    psi: QMatrix  # p x n, surjective, psi*phi = 0

    def __post_init__(self):
        n, m = self.phi.rows, self.phi.cols
        p = self.psi.rows
        if self.psi.cols != n:
            raise ValueError("psi domain must match phi codomain")
        if n != m + p:
            raise ValueError("dimensions not exact: need dim N = dim M + dim P")
        if self.phi.rank() != m:
            raise ValueError("phi not injective")
        if self.psi.rank() != p:
            raise ValueError("psi not surjective")
        if not (self.psi * self.phi).is_zero():
            raise ValueError("psi . phi != 0")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.phi.cols, self.phi.rows, self.psi.rows)


def sym_power(f: QMatrix, i: int) -> QMatrix:
    """Matrix of the i-th symmetric power on monomial bases.

    A monomial x^a of the source maps to the product of the i-th powers of
    the columns of f, expanded on the degree-i monomials of the target:
    column a is the image of x^a in the `monomial_images` table of the
    columns of f, as linear forms, and the row of a target monomial is its
    key there.
    """
    if i < 1:
        raise ValueError("symmetric power degree must be >= 1")
    if not (f.rows and f.cols):  # Sym^i of a zero space is zero
        return QMatrix.zero(comb(f.rows + i - 1, i), comb(f.cols + i - 1, i))
    unit = monomials(f.rows, 1)
    images = monomial_images(
        [HomPoly._trusted(f.rows, 1, dict(zip(unit, col))) for col in zip(*f.data)], i
    )
    cols = [images[a] for a in monomials(f.cols, i)]
    keys = map(images.key, monomials(f.rows, i))
    return QMatrix([[col.get(k, 0) for col in cols] for k in keys])


def _dual_weights(dim: int, i: int) -> list[int]:
    """Pairing weights i!/a! for (Sym^i W)^* vs Sym^i(W^*), one per monomial
    a of degree i: the abstract dual basis vector of x^a is i!/a! times the
    dual-variable monomial.  A zero space has no monomial of degree i >= 1."""
    if not dim:
        return []
    fi = factorial(i)
    weights = []
    for a in monomials(dim, i):
        fa = 1
        for e in a:
            fa *= factorial(e)
        weights.append(fi // fa)
    return weights


def _quotient(x, d: int) -> int | Fraction:
    """x / d for a positive int d, normalized by `exact`: an int when x is
    an int that d divides, without building a Fraction, otherwise by way
    of one (rational x, from a user-built sequence, takes this path)."""
    if type(x) is int:
        q, r = divmod(x, d)
        if not r:
            return q
    return exact(Fraction(x, d))


def _dualize(f: QMatrix, row_weights: list[int], col_weights: list[int]) -> QMatrix:
    """The pairing-weighted transpose of f: entry (r, c) is f[c, r] times
    row_weights[r] / col_weights[c], which translates abstract duals to
    monomials of the dual variables on both sides.  Each entry is one
    product and one division, exact in ints for an integer f."""
    return QMatrix._trusted(
        [
            [_quotient(row_weights[r] * x, col_weights[c]) if x else 0 for c, x in enumerate(col)]
            for r, col in enumerate(zip(*f.data) if f.rows else [()] * f.cols)
        ],
        f.rows,
    )


def injection_via_symmetrize_then_dualize(ses: LinearSES, i: int) -> QMatrix:
    """Route one for Sym^i P^* -> Sym^i N^*: the weighted transpose of
    Sym^i(psi)."""
    s = sym_power(ses.psi, i)
    return _dualize(s, _dual_weights(ses.phi.rows, i), _dual_weights(ses.psi.rows, i))


def injection_via_dualize_then_symmetrize(ses: LinearSES, i: int) -> QMatrix:
    """Route two: symmetric power of the plain transpose of psi."""
    return sym_power(ses.psi.transpose(), i)


def _mult_injection(ses: LinearSES, i: int) -> QMatrix:
    """Sym^{i-1} N (x) M -> Sym^i N: multiply by the image of a basis vector
    of M under phi.  Columns indexed by (monomial b of degree i-1, k)."""
    n_dim = ses.phi.rows
    m_dim = ses.phi.cols
    if not n_dim:  # the zero sequence: Sym^i 0 = 0 and M = 0
        return QMatrix.zero(0, 0)
    src_monos = monomials(n_dim, i - 1)
    tgt_index = monomial_index(n_dim, i)
    rows = [[0] * (len(src_monos) * m_dim) for _ in range(len(tgt_index))]
    for bi, b in enumerate(src_monos):
        for j in range(n_dim):
            row = rows[tgt_index[b[:j] + (b[j] + 1,) + b[j + 1 :]]]
            for k in range(m_dim):
                row[bi * m_dim + k] += ses.phi[(j, k)]
    return QMatrix(rows, cols=len(src_monos) * m_dim)


def quotient_via_symmetrize_then_dualize(ses: LinearSES, i: int) -> QMatrix:
    """Route one for Sym^i N^* -> Sym^{i-1} N^* (x) M^*: the weighted
    transpose of the multiplication injection (the M^* tensor factor pairs
    plainly, so each degree-(i-1) weight repeats dim M times)."""
    m_dim = ses.phi.cols
    w_low = [w for w in _dual_weights(ses.phi.rows, i - 1) for _ in range(m_dim)]
    return _dualize(_mult_injection(ses, i), w_low, _dual_weights(ses.phi.rows, i))


def quotient_via_dualize_then_symmetrize(ses: LinearSES, i: int) -> QMatrix:
    """Route two, the explicit peel-one-factor formula: a monomial l^a maps
    to (1/i) sum_j a_j [l^(a - e_j)] (x) phi^T(l_j).  The numerators a_j c
    are summed first and each entry is divided by i once, so an integer phi
    is worked in ints."""
    n_dim = ses.phi.rows
    m_dim = ses.phi.cols
    if not n_dim:  # the zero sequence: Sym^i 0 = 0 and M = 0
        return QMatrix.zero(0, 0)
    src_monos = monomials(n_dim, i)
    low_index = monomial_index(n_dim, i - 1)
    rows = [[0] * len(src_monos) for _ in range(len(low_index) * m_dim)]
    for ai, a in enumerate(src_monos):
        for j in range(n_dim):
            if not a[j]:
                continue
            low = low_index[a[:j] + (a[j] - 1,) + a[j + 1 :]] * m_dim
            for k, c in enumerate(ses.phi.data[j]):
                if c:
                    rows[low + k][ai] += a[j] * c
    return QMatrix._trusted(
        [[_quotient(x, i) if x else 0 for x in row] for row in rows], len(src_monos)
    )


def check_commute(ses: LinearSES, i: int) -> bool:
    """True iff both routes give identical injection and quotient matrices."""
    inj1 = injection_via_symmetrize_then_dualize(ses, i)
    inj2 = injection_via_dualize_then_symmetrize(ses, i)
    quo1 = quotient_via_symmetrize_then_dualize(ses, i)
    quo2 = quotient_via_dualize_then_symmetrize(ses, i)
    return inj1 == inj2 and quo1 == quo2


def quotient_map(ses: LinearSES, i: int) -> QMatrix:
    """The peel-one-factor map Sym^i N^* -> Sym^{i-1} N^* (x) M^*.

    For i = 1 this is the plain transpose of phi.
    """
    if i < 1:
        raise ValueError("symmetric power degree must be >= 1")
    return quotient_via_dualize_then_symmetrize(ses, i)


def random_ses(seed: int, max_middle: int = 5) -> LinearSES:
    """Seeded random exact sequence with small integer entries.

    phi is a random injective integer matrix with entries in [-4, 4]; a
    draw whose left kernel is not of dimension n - m is not injective and
    is drawn again.  The rows of psi span the left kernel of phi: each
    vector of `kernel_basis` is scaled by the lcm of its denominators.  It
    has an entry 1, so for each prime of that lcm some scaled entry is
    prime to it, and psi has primitive integer rows.  Scaling changes the
    sequence only by a diagonal change of basis of P.  Dimensions are
    drawn with 1 <= dim M, dim P and dim N <= max_middle, so max_middle
    must be >= 2.
    """
    if max_middle < 2:
        raise ValueError(f"max_middle must be >= 2, got {max_middle}")
    rng = SplitMix64(seed)
    while True:
        n = rng.next_int(2, max_middle)
        m = rng.next_int(1, n - 1)
        phi = QMatrix(
            [[rng.next_int(-4, 4) for _ in range(m)] for _ in range(n)]
        )
        kernel = phi.transpose().kernel_basis()
        if len(kernel) != n - m:  # rank-nullity: phi is not injective
            continue
        psi = _integer_rows([x for (x,) in v.data] for v in kernel)
        return LinearSES(phi, QMatrix(psi, cols=n))
