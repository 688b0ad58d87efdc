"""Standard and seeded-random rational curves used for restriction.

Coefficients are drawn from [-9, 9]; degenerate draws (coefficient matrix
of a line not of rank 2, coordinate change not invertible) are discarded
and the stream continues, so each seed still names one curve.
"""

from __future__ import annotations

from .gradedmap import CurveParam
from .linalg import QMatrix
from .poly import HomPoly
from .prng import SplitMix64

COEFF_LO, COEFF_HI = -9, 9


def standard_line(n: int) -> CurveParam:
    """The line (s, t, 0, ..., 0) in P^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    forms = [HomPoly.variable(2, 0), HomPoly.variable(2, 1)]
    return CurveParam(1, tuple(forms + [HomPoly.zero(2, 1)] * (n - 1)))


def random_line(n: int, seed: int) -> CurveParam:
    """A seeded random line: forms a_i s + b_i t with rank-2 coefficients."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = SplitMix64(seed)
    while True:
        coeffs = [
            (rng.next_int(COEFF_LO, COEFF_HI), rng.next_int(COEFF_LO, COEFF_HI))
            for _ in range(n + 1)
        ]
        if QMatrix(coeffs).rank() == 2:
            break
    return CurveParam(1, tuple(HomPoly(2, 1, {(1, 0): a, (0, 1): b}) for a, b in coeffs))


def rnc(n: int, seed: int) -> CurveParam:
    """A rational normal curve of degree n in P^n.

    Seed 0 is the monomial parametrization (s^n, s^{n-1} t, ..., t^n);
    other seeds compose it with a seeded random invertible integer change
    of coordinates, which preserves base-point-freeness.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if seed == 0:
        rows = QMatrix.identity(n + 1).data
    else:
        rng = SplitMix64(seed)
        while True:
            rows = [
                [rng.next_int(COEFF_LO, COEFF_HI) for _ in range(n + 1)]
                for _ in range(n + 1)
            ]
            if QMatrix(rows).rank() == n + 1:
                break
    forms = tuple(
        HomPoly(2, n, {(n - k, k): c for k, c in enumerate(row) if c}) for row in rows
    )
    return CurveParam(n, forms)
