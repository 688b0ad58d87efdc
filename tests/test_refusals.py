"""Public functions refuse invalid arguments with one exact message each."""

import re

import pytest

from veronese.bundles import VeroneseContext, delta_matrix, euler_presentation, theta_matrix
from veronese.chow import ChowClass
from veronese.curves import standard_line
from veronese.gradedmap import GradedMap, TwistMismatchError
from veronese.linalg import QMatrix
from veronese.p1split import SplittingType, h0_direct
from veronese.poly import HomPoly, monomial_images, monomials
from veronese.symlin import LinearSES, quotient_map, random_ses

X0, X1 = HomPoly.variable(2, 0), HomPoly.variable(2, 1)
Y0 = HomPoly.variable(3, 0)
PHI = QMatrix([[1], [0], [0]])

REFUSALS = {
    "delta index": (lambda: delta_matrix(VeroneseContext(1, 2), 0), "delta index 0 outside 1..2"),
    "euler n": (lambda: euler_presentation(0), "need n >= 1"),
    "chow length": (lambda: ChowClass(2, (1, 0)), "need n+1 coefficients"),
    "chow product": (lambda: ChowClass.one(2) * ChowClass.one(3), "ambient dimension mismatch"),
    "chow power": (lambda: ChowClass.one(2).power(-1), "negative power; use inverse() first"),
    "compose": (
        lambda: euler_presentation(1).compose(euler_presentation(2)),
        "variable count mismatch in composition",
        TwistMismatchError,
    ),
    "pullback": (
        lambda: theta_matrix(VeroneseContext(2, 2)).pullback(standard_line(3)),
        "curve lives in P^3, map in P^2",
    ),
    "matrix product": (lambda: QMatrix([[1, 2]]) * QMatrix([[1, 2]]), "shape mismatch 2 vs 1"),
    "h0 window": (lambda: SplittingType((1,)).h0_profile(1, 0), "empty twist window"),
    "h0 variables": (
        lambda: h0_direct(euler_presentation(2), 0),
        "h0_direct is specific to the projective line",
    ),
    "monomials": (lambda: monomials(0, 1), "need at least one variable"),
    "variable": (lambda: HomPoly.variable(2, 2), "variable index out of range"),
    "sum variables": (lambda: X0 + Y0, "variable count mismatch"),
    "product variables": (lambda: X0 * Y0, "variable count mismatch"),
    "sum degrees": (lambda: X0 + X1 * X1, "cannot add forms of different degrees"),
    "differentiate": (lambda: X0.differentiate(2), "variable index out of range"),
    "substitute": (lambda: X0.substitute([X0]), "need one form per variable"),
    "evaluate": (lambda: X0.evaluate([1]), "point dimension mismatch"),
    "images": (
        lambda: monomial_images([X0, Y0], 1),
        "substitution forms disagree on variable count",
    ),
    "ses domain": (
        lambda: LinearSES(PHI, QMatrix([[0, 1]])),
        "psi domain must match phi codomain",
    ),
    "ses surjective": (
        lambda: LinearSES(PHI, QMatrix([[0, 1, 0], [0, 1, 0]])),
        "psi not surjective",
    ),
    "quotient degree": (
        lambda: quotient_map(random_ses(0), 0),
        "symmetric power degree must be >= 1",
    ),
}


@pytest.mark.parametrize("case", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_message(case):
    call, message, *error = case
    error = error[0] if error else ValueError
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is error
