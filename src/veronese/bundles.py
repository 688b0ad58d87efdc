"""Constructors for the maps and bundles attached to a Veronese embedding.

Conventions, fixed once for the whole package:

* theta rows are indexed by the degree-d monomials Z^g (graded-lex); the
  entry in column i is the partial derivative of Z^g with respect to Z_i.
  This is the multiplication-by-the-Euler-section matrix with each row
  divided by its constant multinomial factor, an automorphism of the
  target that leaves the cokernel sheaf unchanged.
* xi uses the formal-derivative transition: entry (row b, column g) is
  g_j * Z_j when g = b + e_j, else zero.  With these two choices the dual
  of theta agrees with the (d-1)-step contraction up to one global integer
  scalar, which verify_dual_identity computes and reports: the observed
  diagonal is constantly (d-1)!.
* d = 1 is rejected everywhere: that embedding is an isomorphism and the
  normal bundle is zero.

Restrictions (`restriction_type`) go through the smallest exact
presentation.  At d = 2 the second fundamental form Sym^2 T -> N is an
isomorphism, so f^*N = Sym^2 f^*T and one column, the Euler map, is
scanned.  At d >= 3 theta is block-diagonal on a coordinate P^k: with the
coordinates Z_w, w > k, set to zero, a row g without Z_w keeps the columns
i <= k, which are theta of P^k; a row h Z_w keeps column w, entry Z^h; every
other row vanishes.  A curve spanning a P^k is put in coordinates by the
k + 1 pivot forms of its coefficient matrix (N is GL-homogeneous), which
`CurveParam` computes once, as `curve.span`, so
f^*N_(n,d) = f^*N_(k,d) + (f^*E_1)^(n-k) + O(de)^rest, where E_1 is the
column of degree-(d-1) monomials, O(1) -> O(d)^C(k+d-1,d-1), and
rest = C(n+d,d) - C(k+d,d) - (n-k) C(k+d-1,d-1).  A curve that spans P^n
is the case n - k = 0: it is its own sub-curve, with no E_1 block and
rest = 0.  The Euler map is the column of degree-1 monomials.

A curve whose forms span S_e (len(span) = e + 1) is one orbit: its
coefficient matrix has rank e + 1 and completes to some A in GL_{n+1}
with f = A o nu, nu = (s^e, s^(e-1) t, ..., t^e, 0, ..., 0) the
torus-fixed degree-e RNC.  N and T are GL-homogeneous, so f^*N = nu^*N
and f^*T = nu^*T: the type depends on (n, d, e) alone and is computed
once, along nu, by the paths above.  Other curves (k < e: plane curves of
degree > 2, covers, the cuspidal cubic) are scanned each time.  `verify`
reads its line and RNC types from here.  The direct scan,
`splitting_type(normal_presentation(ctx).pullback(curve))`, stays the
oracle: `verify.check_restriction_routes` compares the two on frozen
curves, and `verify`'s golden check runs it against frozen types.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .curves import rational_normal
from .gradedmap import CurveParam, GradedMap
from .linalg import exact
from .p1split import SplittingType, splitting_type
from .poly import HomPoly, monomial_index, monomials


class VeroneseDegreeError(ValueError):
    """Raised for d = 1: the embedding is an isomorphism, normal bundle zero."""


@dataclass(frozen=True)
class VeroneseContext:
    """Dimension n >= 1 and degree d >= 2 of an embedding of P^n by degree-d forms."""

    n: int
    d: int

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "d", operator.index(self.d))
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if self.d == 1:
            raise VeroneseDegreeError(
                "Veronese with d=1 is an isomorphism; normal bundle is zero"
            )
        if self.d < 1:
            raise ValueError("degree d must be >= 2")

    @property
    def num_vars(self) -> int:
        return self.n + 1

    @property
    def sym_dim(self) -> int:
        """dim Sym^d of an (n+1)-dimensional space = C(n+d, d)."""
        return comb(self.n + self.d, self.d)


def theta_matrix(ctx: VeroneseContext) -> GradedMap:
    """The relation matrix of the twisted-down normal bundle.

    Maps (n+1) copies of O(1-d) to C(n+d,d) copies of O; the cokernel is
    the normal bundle twisted by O(-d).  Entry (row g, column i) is
    d(Z^g)/dZ_i = g_i Z^(g - e_i), and the zero form of degree d - 1 where
    g_i = 0.  Each call builds a fresh map.
    """
    nv, d = ctx.num_vars, ctx.d
    zero = HomPoly.zero(nv, d - 1)
    rows = [
        [
            HomPoly._trusted(nv, d - 1, {(*g[:i], gi - 1, *g[i + 1 :]): gi}) if gi else zero
            for i, gi in enumerate(g)
        ]
        for g in monomials(nv, d)
    ]
    return GradedMap._trusted(nv, (1 - d,) * nv, (0,) * len(rows), rows)


def normal_presentation(ctx: VeroneseContext) -> GradedMap:
    """Presentation with cokernel the normal bundle itself.

    Same entries as theta_matrix, twisted so the map runs from (n+1)
    copies of O(1) to C(n+d,d) copies of O(d); cokernel rank is
    C(n+d,d) - n - 1.  Each call builds a fresh map.
    """
    return theta_matrix(ctx).twist(ctx.d)


def xi_matrix(ctx: VeroneseContext, i: int) -> GradedMap:
    """Single contraction step Sym^i (x) O(d-i) -> Sym^{i-1} (x) O(d-i+1).

    Entries follow the formal-derivative convention: column g maps to
    sum_j g_j Z_j at row g - e_j.  Strata are surjective in the stable
    range m >= i-1; below it the first cohomology of the symmetric-power
    kernel can obstruct the section-level map.
    """
    if not 1 <= i <= ctx.d:
        raise ValueError(f"xi index {i} outside 1..{ctx.d}")
    nv = ctx.num_vars
    cols = monomials(nv, i)
    row_of = monomial_index(nv, i - 1)
    rows = [[HomPoly.zero(nv, 1)] * len(cols) for _ in row_of]
    for c, g in enumerate(cols):
        for j, gj in enumerate(g):
            if gj:
                b = g[:j] + (gj - 1,) + g[j + 1 :]
                rows[row_of[b]][c] = HomPoly.variable(nv, j, gj)
    return GradedMap._trusted(nv, (ctx.d - i,) * len(cols), (ctx.d - i + 1,) * len(rows), rows)


def delta_matrix(ctx: VeroneseContext, i: int) -> GradedMap:
    """Iterated contraction Sym^d (x) O -> Sym^{d-i} (x) O(i): the last i xi steps."""
    if not 1 <= i <= ctx.d:
        raise ValueError(f"delta index {i} outside 1..{ctx.d}")
    out = xi_matrix(ctx, ctx.d)
    for k in range(ctx.d - 1, ctx.d - i, -1):
        out = xi_matrix(ctx, k).compose(out)
    return out


@dataclass(frozen=True)
class KBundleStats:
    """Rank, degree and slope of the kernel of the i-step contraction."""

    i: int
    rank: int
    degree: int
    slope: int | Fraction


def k_bundle_stats(ctx: VeroneseContext, i: int) -> KBundleStats:
    """Closed-form invariants of ker(delta^i): additive over the contraction sequence.

    Uses the convention C(n-1, -1) = 0 for i = d+1, where the kernel is the
    whole trivial bundle and the slope is 0.
    """
    if not 1 <= i <= ctx.d + 1:
        raise ValueError(f"kernel index {i} outside 1..{ctx.d + 1}")
    quotient_rank = comb(ctx.n + ctx.d - i, ctx.d - i) if i <= ctx.d else 0
    rank = ctx.sym_dim - quotient_rank
    degree = -i * quotient_rank
    return KBundleStats(i, rank, degree, exact(Fraction(degree, rank)))


def euler_presentation(n: int) -> GradedMap:
    """Presentation of the tangent bundle of P^n: O -> O(1)^(n+1), column (Z_i)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _monomial_column(n, 1)


def _monomial_column(k: int, degree: int) -> GradedMap:
    """O -> O(degree)^C(k+degree,degree) on P^k, the column of
    degree-`degree` monomials: the Euler map at degree 1, and E_1 twisted
    by O(1) at degree d - 1."""
    nv = k + 1
    rows = [[HomPoly._trusted(nv, degree, {g: 1})] for g in monomials(nv, degree)]
    return GradedMap._trusted(nv, (0,), (degree,) * len(rows), rows)


def restriction_type(ctx: VeroneseContext, curve: CurveParam) -> SplittingType:
    """Splitting type of the normal bundle pulled back along `curve`.

    Equal to `splitting_type(normal_presentation(ctx).pullback(curve))`,
    from a smaller presentation (module docstring): Sym^2 of the tangent
    type at d = 2, and at d >= 3 the blocks of theta on the curve's span,
    which `curve.span` holds.  A curve whose forms span S_e is in the
    GL_{n+1} orbit of the torus-fixed `rational_normal(n, e)`, whose type
    is computed once per (ctx, e); the 64 most recently used are kept.
    """
    if curve.ambient_vars != ctx.num_vars:
        raise ValueError(
            f"curve lives in P^{curve.ambient_vars - 1}, map in P^{ctx.n}"
        )
    if len(curve.span) == curve.degree + 1:
        return _orbit_type(ctx, curve.degree)
    return _span_type(ctx, curve)


@lru_cache(maxsize=64)
def _orbit_type(ctx: VeroneseContext, e: int) -> SplittingType:
    """The type along every curve whose forms span S_e: that of the
    torus-fixed `rational_normal(n, e)`, which GL_{n+1} moves onto each."""
    return _span_type(ctx, rational_normal(ctx.n, e))


def _span_type(ctx: VeroneseContext, curve: CurveParam) -> SplittingType:
    n, d, e = ctx.n, ctx.d, curve.degree
    if d == 2:
        return splitting_type(euler_presentation(n).pullback(curve)).sym_square()
    k = len(curve.span) - 1
    sub = curve if k == n else CurveParam(e, tuple(curve.forms[i] for i in curve.span))
    blocks = splitting_type(normal_presentation(VeroneseContext(k, d)).pullback(sub)).degrees
    if k < n:
        blocks += splitting_type(_monomial_column(k, d - 1).twist(1).pullback(sub)).degrees * (n - k)
    rest = ctx.sym_dim - comb(k + d, d) - (n - k) * comb(k + d - 1, d - 1)
    return SplittingType(blocks + (d * e,) * rest)


@dataclass(frozen=True)
class DualIdentityReport:
    """Outcome of comparing dual(theta) with the (d-1)-step contraction."""

    ok: bool
    row_scales: tuple[int | Fraction, ...]
    is_scalar: bool
    scale: int | Fraction | None
    detail: str

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "rowScales": [str(x) for x in self.row_scales],
            "isScalar": self.is_scalar,
            "scale": str(self.scale) if self.scale is not None else None,
            "detail": self.detail,
        }


def verify_dual_identity(ctx: VeroneseContext) -> DualIdentityReport:
    """Check dual(theta) = D * delta^{d-1} for an invertible diagonal D.

    The twists of dual(theta) already match those of delta^{d-1}; the
    comparison is entrywise on polynomial matrices.  A row's scale is read
    at the leading term of its first nonzero entry of dual(theta), and
    every entry of delta^{d-1} in that row, zero or not, must be that
    scale times the one of dual(theta).  With this package's
    conventions the diagonal is constant (d-1)!, which the report records.
    """
    lhs = theta_matrix(ctx).dual()
    rhs = delta_matrix(ctx, ctx.d - 1)
    if (
        lhs.source_twists != rhs.source_twists
        or lhs.target_twists != rhs.target_twists
    ):
        return DualIdentityReport(
            False, (), False, None, "twist lists disagree"
        )
    scales = []
    for r, (arow, brow) in enumerate(zip(lhs.entries, rhs.entries)):
        scale = 0
        for a, b in zip(arow, brow):
            if not a.is_zero():
                mono, x = a.sorted_terms()[0]
                scale = exact(Fraction(b.coeff(mono), x))
                break
        if not scale:
            return DualIdentityReport(
                False, tuple(scales), False, None, f"row {r} gives no invertible scale"
            )
        for c, (a, b) in enumerate(zip(arow, brow)):
            if b != a * scale:
                return DualIdentityReport(
                    False, tuple(scales), False, None,
                    f"rows not proportional at ({r},{c})",
                )
        scales.append(scale)
    constant = len(set(scales)) == 1
    if constant:
        expected = factorial(ctx.d - 1)
        mark = "= (d-1)!" if scales[0] == expected else f"!= (d-1)! = {expected}"
        detail = f"delta^{ctx.d - 1} = {scales[0]} * dual(theta); scalar diagonal {mark}"
    else:
        detail = "diagonal rescaling exists but row scales are not constant"
    return DualIdentityReport(
        True, tuple(scales), constant, scales[0] if constant else None, detail
    )
