"""Standard and seeded-random rational curves used for restriction.

A curve of degree e in P^n is built from n+1 rows: row i holds the
coefficients of s^(e-k) t^k, k = 0..e, in form i.  Random rows are drawn
from [-9, 9] until their forms span S_e (rank e+1, which `CurveParam`
reads as `len(span)`); a draw of lower rank is discarded and the stream
continues, so each seed still names one curve.
"""

from __future__ import annotations

from .gradedmap import BasePointError, CurveParam
from .poly import HomPoly
from .prng import SplitMix64

COEFF_LO, COEFF_HI = -9, 9


def _from_rows(e: int, rows: list[list[int]]) -> CurveParam:
    """The curve of degree e whose form i has coefficient rows[i][k] at s^(e-k) t^k.

    The monomials are listed here and the coefficients are ints, so the
    forms are built unchecked; `CurveParam` makes every check of a curve.
    """
    monos = [(e - k, k) for k in range(e + 1)]
    return CurveParam(e, tuple(HomPoly._trusted(2, e, dict(zip(monos, row))) for row in rows))


def _draw(n: int, e: int, seed: int) -> CurveParam:
    """The curve of n+1 rows of e+1 coefficients, drawn row by row from
    SplitMix64(seed) until its forms span S_e."""
    rng = SplitMix64(seed)
    while True:
        rows = [[rng.next_int(COEFF_LO, COEFF_HI) for _ in range(e + 1)] for _ in range(n + 1)]
        try:
            curve = _from_rows(e, rows)
        except BasePointError:
            continue
        if len(curve.span) == e + 1:
            return curve


def rational_normal(n: int, e: int) -> CurveParam:
    """The torus-fixed rational normal curve (s^e, s^(e-1) t, ..., t^e, 0, ..., 0)
    of degree e in P^n, 1 <= e <= n, spanning the coordinate P^e."""
    if not 1 <= e <= n:
        raise ValueError("need 1 <= e <= n")
    return _from_rows(e, [[int(i == k) for k in range(e + 1)] for i in range(n + 1)])


def standard_line(n: int) -> CurveParam:
    """The line (s, t, 0, ..., 0) in P^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return rational_normal(n, 1)


def random_line(n: int, seed: int) -> CurveParam:
    """A seeded random line: forms a_i s + b_i t with rank-2 coefficients."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _draw(n, 1, seed)


def rnc(n: int, seed: int) -> CurveParam:
    """A rational normal curve of degree n in P^n.

    Seed 0 is the monomial parametrization (s^n, s^{n-1} t, ..., t^n), the
    identity rows; other seeds compose it with a seeded random invertible
    integer change of coordinates, which preserves base-point-freeness.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if seed == 0:
        return rational_normal(n, n)
    return _draw(n, n, seed)
