"""Truncated Chow-ring arithmetic on P^n and numerical bundle invariants.

A ChowClass is a power series in the hyperplane class, truncated modulo
the (n+1)-st power.  Division is multiplication by the truncated inverse,
exact over the rationals.  Every scalar follows `linalg.exact`: an int when
it is integral, otherwise a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .bundles import VeroneseContext
from .gradedmap import GradedMap
from .linalg import exact
from .p1split import SplittingType


@dataclass(frozen=True)
class ChowClass:
    """Polynomial in the hyperplane class xi modulo xi^(n+1)."""

    n: int
    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        c = tuple(exact(x) for x in self.coeffs)
        if len(c) != self.n + 1:
            raise ValueError("need n+1 coefficients")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def one(cls, n: int) -> "ChowClass":
        return cls(n, (1,) + (0,) * n)

    @classmethod
    def line(cls, n: int, a) -> "ChowClass":
        """The class 1 + a*xi (total Chern class of O(a))."""
        coeffs = [1, a] + [0] * (n - 1)
        return cls(n, tuple(coeffs[: n + 1]))

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        n = self.n
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > n:
                    break
                out[i + j] += a * b
        return ChowClass(n, tuple(out))

    def power(self, k: int) -> "ChowClass":
        if k < 0:
            raise ValueError("negative power; use inverse() first")
        acc = ChowClass.one(self.n)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def inverse(self) -> "ChowClass":
        """Truncated multiplicative inverse; constant term must be nonzero."""
        a0 = self.coeffs[0]
        if not a0:
            raise ZeroDivisionError("no inverse: constant term is zero")
        n = self.n
        inv = [0] * (n + 1)
        inv[0] = Fraction(1, a0)
        for k in range(1, n + 1):
            acc = 0
            for j in range(1, k + 1):
                acc += self.coeffs[j] * inv[k - j]
            inv[k] = Fraction(-acc, a0)
        return ChowClass(n, tuple(inv))


@dataclass(frozen=True)
class BundleStats:
    rank: int
    degree: int
    slope: int | Fraction

    def to_json(self) -> dict:
        return {"rank": self.rank, "degree": self.degree, "slope": str(self.slope)}


@dataclass(frozen=True)
class HilbertPoly:
    """chi(E(m)) = sum_i alphas[i] * m^i / i!."""

    alphas: tuple[int | Fraction, ...]

    def __post_init__(self):
        a = tuple(exact(x) for x in self.alphas)
        while len(a) > 1 and not a[-1]:
            a = a[:-1]
        object.__setattr__(self, "alphas", a)

    @property
    def dim(self) -> int:
        return len(self.alphas) - 1

    def evaluate(self, m) -> int | Fraction:
        acc = 0
        for i, a in enumerate(self.alphas):
            acc += Fraction(a * m**i, factorial(i))
        return exact(acc)

    def to_json(self) -> dict:
        return {"alphas": [str(a) for a in self.alphas]}


def chern_normal(ctx: VeroneseContext) -> ChowClass:
    """Total Chern class of the normal bundle: (1+d xi)^C(n+d,d) / (1+xi)^(n+1)."""
    n = ctx.n
    num = ChowClass.line(n, ctx.d).power(ctx.sym_dim)
    den = ChowClass.line(n, 1).power(n + 1)
    return num * den.inverse()


def normal_stats(ctx: VeroneseContext) -> BundleStats:
    """Rank, degree (first Chern coefficient), and slope of the normal bundle."""
    rank = ctx.sym_dim - ctx.n - 1
    degree = ctx.sym_dim * ctx.d - (ctx.n + 1)
    return BundleStats(rank, degree, exact(Fraction(degree, rank)))


def _binom_poly(n: int, a: int) -> list[int | Fraction]:
    """Coefficients of C(n + a + m, n) as a polynomial in m."""
    # product (m + a + k) for k = 1..n, divided by n!
    coeffs = [1]
    for k in range(1, n + 1):
        shift = a + k
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * shift
            nxt[i + 1] += c
        coeffs = nxt
    fn = factorial(n)
    return [exact(Fraction(c, fn)) for c in coeffs]


def hilbert_poly(pres: GradedMap) -> HilbertPoly:
    """Hilbert polynomial of the cokernel, additive over the presentation."""
    n = pres.num_vars - 1
    coeffs = [0] * (n + 1)
    for t in pres.target_twists:
        for i, c in enumerate(_binom_poly(n, t)):
            coeffs[i] += c
    for s in pres.source_twists:
        for i, c in enumerate(_binom_poly(n, s)):
            coeffs[i] -= c
    alphas = tuple(c * factorial(i) for i, c in enumerate(coeffs))
    return HilbertPoly(alphas)


@dataclass(frozen=True)
class GMReport:
    """Splitting degrees of a restriction checked against the slope-semistable
    bounds: unit spread on a general line, Chern degree sum, cokernel rank."""

    degrees: tuple[int, ...]
    spread_ok: bool
    sum_ok: bool
    rank_ok: bool
    expected_sum: int
    expected_rank: int

    @property
    def all_ok(self) -> bool:
        return self.spread_ok and self.sum_ok and self.rank_ok

    def to_json(self) -> dict:
        return {
            "degrees": list(self.degrees),
            "spread_ok": self.spread_ok,
            "sum_ok": self.sum_ok,
            "rank_ok": self.rank_ok,
            "expected_sum": self.expected_sum,
            "expected_rank": self.expected_rank,
        }


def gm_check(st: SplittingType, ctx: VeroneseContext, curve_degree: int = 1) -> GMReport:
    """Check a restriction splitting type of the normal bundle.

    spread_ok: consecutive gaps of the sorted degrees are 0 or 1 (the
               general-line bound from slope semistability);
    sum_ok:    degrees sum to e * (C(n+d,d)*d - (n+1)) for a degree-e curve;
    rank_ok:   there are C(n+d,d) - n - 1 of them.
    """
    degs = st.degrees
    gaps = [degs[i] - degs[i + 1] for i in range(len(degs) - 1)]
    stats = normal_stats(ctx)
    return GMReport(
        degrees=degs,
        spread_ok=all(0 <= g <= 1 for g in gaps),
        sum_ok=st.degree == curve_degree * stats.degree,
        rank_ok=st.rank == stats.rank,
        expected_sum=curve_degree * stats.degree,
        expected_rank=stats.rank,
    )
