"""The scalar convention: every coefficient is an int when it is integral and
a Fraction otherwise, never a float and never an integral Fraction."""

from fractions import Fraction

import pytest

from veronese.bundles import (
    VeroneseContext,
    k_bundle_stats,
    normal_presentation,
    verify_dual_identity,
    xi_matrix,
)
from veronese.chow import ChowClass, HilbertPoly, chern_normal, hilbert_poly, normal_stats
from veronese.curves import random_line, rnc
from veronese.gradedmap import CurveParam, GradedMap, binary_gcd
from veronese.linalg import QMatrix, exact
from veronese.poly import HomPoly, parse_poly
from veronese.symlin import (
    injection_via_dualize_then_symmetrize,
    injection_via_symmetrize_then_dualize,
    quotient_via_dualize_then_symmetrize,
    quotient_via_symmetrize_then_dualize,
    random_ses,
)


def _assert_exact(x):
    assert type(x) in (int, Fraction), f"{x!r} is a {type(x).__name__}"
    if type(x) is Fraction:
        assert x.denominator != 1, f"integral value {x!r} kept as a Fraction"


def _assert_map_exact(f: GradedMap):
    for row in f.entries:
        for e in row:
            for c in e.terms.values():
                _assert_exact(c)


def _assert_matrix_exact(m: QMatrix):
    for row in m.data:
        for x in row:
            _assert_exact(x)


def _kinds(values) -> set:
    return {type(x) for x in values}


def test_exact_normalizes():
    assert exact(3) == 3 and type(exact(3)) is int
    assert type(exact(Fraction(6, 3))) is int and exact(Fraction(6, 3)) == 2
    assert exact(Fraction(1, 2)) == Fraction(1, 2)
    assert type(exact(True)) is int
    assert exact("4/6") == Fraction(2, 3)
    for inexact in (0.5, 2.0, float("nan")):
        with pytest.raises(TypeError):
            exact(inexact)


def test_int_and_integral_fraction_coefficients_are_interchangeable():
    a = HomPoly(2, 1, {(1, 0): Fraction(2), (0, 1): Fraction(1, 2)})
    b = HomPoly(2, 1, {(1, 0): 2, (0, 1): Fraction(1, 2)})
    assert a.terms == b.terms and type(a.coeff((1, 0))) is int
    assert a == b and hash(a) == hash(b) and str(a) == str(b)
    assert type(a.coeff((0, 0))) is int
    m = QMatrix([[Fraction(4, 2), Fraction(1, 3)]])
    assert type(m[0, 0]) is int and m == QMatrix([[2, Fraction(1, 3)]])
    assert hash(m) == hash(QMatrix([[2, Fraction(1, 3)]]))


def test_qmatrix_keeps_int_rows_and_normalizes_the_rest():
    row = (1, -2, 3)
    m = QMatrix([row, [Fraction(4, 2), True, Fraction(1, 3)]])
    assert m.data[0] is row
    assert m.data[1] == (2, 1, Fraction(1, 3))
    assert [type(x) for x in m.data[1]] == [int, int, Fraction]
    for inexact in ([[1, 0.5]], [[2.0, 1]], [(1, 2), [3, 4.0]]):
        with pytest.raises(TypeError):
            QMatrix(inexact)
    for ragged in ([[1, 2], [3]], [[1, 2], [Fraction(1, 2)]]):
        with pytest.raises(ValueError, match="ragged"):
            QMatrix(ragged)


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2)])
def test_pullbacks_and_strata_are_exact(n, d):
    pres = normal_presentation(VeroneseContext(n, d))
    for seed in range(3):
        for curve in (random_line(n, seed), rnc(n, seed)):
            back = pres.pullback(curve)
            _assert_map_exact(back)
            # built unchecked; the checked constructor accepts it unchanged
            assert GradedMap(2, back.source_twists, back.target_twists, back.entries) == back
            for m in range(-1, 3):
                _assert_matrix_exact(back.dual().stratum(m))
                _assert_matrix_exact(back.stratum(m))


def test_pullback_row_terms_are_exact():
    """A curve with Fraction coefficients: 2 * (t/2) is the int 1 in the
    row terms and in the entries built from them."""
    half = Fraction(1, 2)
    curve = CurveParam(
        1,
        (
            HomPoly(2, 1, {(1, 0): 2}),
            HomPoly(2, 1, {(0, 1): half}),
            HomPoly(2, 1, {(1, 0): half, (0, 1): 1}),
        ),
    )
    back = normal_presentation(VeroneseContext(2, 2)).pullback(curve)
    coeffs = [c for row in back.row_terms() for _, _, c in row]
    assert _kinds(coeffs) == {int, Fraction} and 1 in coeffs
    for c in coeffs:
        _assert_exact(c)
    _assert_map_exact(back)


def test_compose_is_exact():
    ctx = VeroneseContext(1, 3)
    composed = xi_matrix(ctx, 1).compose(xi_matrix(ctx, 2))
    _assert_map_exact(composed)
    z0, z1 = HomPoly.variable(2, 0), HomPoly.variable(2, 1)
    inner = GradedMap(2, [0], [1], [[z0 * Fraction(1, 2)]])
    outer = GradedMap(2, [1], [2], [[z1 * 2 + z0 * Fraction(1, 3)]])
    product = outer.compose(inner)
    _assert_map_exact(product)
    assert _kinds(product.entry(0, 0).terms.values()) == {int, Fraction}
    _assert_matrix_exact(product.stratum(1))


def test_rref_and_kernel_are_exact():
    for m in (
        QMatrix([[2, 4], [1, 3]]),
        QMatrix([[2, 1, 0], [4, 2, 1]]),
        QMatrix([[Fraction(1, 3), 2, 5], [1, 6, Fraction(7, 2)]]),
    ):
        red, _ = m.rref()
        _assert_matrix_exact(red)
        for v in m.kernel_basis():
            _assert_matrix_exact(v)
            assert (m * v).is_zero()
    red, _ = QMatrix([[2, 1, 0], [4, 2, 1]]).rref()
    assert _kinds(x for row in red.data for x in row) == {int, Fraction}


def test_symlin_routes_are_exact():
    kinds = set()
    for seed in range(12):
        ses = random_ses(seed)
        for i in (1, 2, 3):
            for route in (
                injection_via_symmetrize_then_dualize,
                injection_via_dualize_then_symmetrize,
                quotient_via_symmetrize_then_dualize,
                quotient_via_dualize_then_symmetrize,
            ):
                m = route(ses, i)
                _assert_matrix_exact(m)
                kinds |= _kinds(x for row in m.data for x in row)
    assert kinds == {int, Fraction}


def test_parse_poly_is_exact():
    p = parse_poly("6/3*Z0 + 1/2*Z1", 2, 1)
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 2)}
    assert type(p.coeff((1, 0))) is int
    _assert_exact(p.coeff((0, 1)))


def test_evaluate_is_exact():
    p = parse_poly("1/2*Z0^2 + Z0*Z1 - 2/3*Z1^2", 2, 2)
    assert p.evaluate((2, 3)) == 2 and type(p.evaluate((2, 3))) is int
    assert p.evaluate((1, 1)) == Fraction(5, 6)
    _assert_exact(p.evaluate((Fraction(1, 2), 3)))


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (2, 4)])
def test_dual_identity_scales_are_exact(n, d):
    report = verify_dual_identity(VeroneseContext(n, d))
    assert report.ok and report.row_scales
    for x in report.row_scales:
        _assert_exact(x)


def test_binary_gcd_with_rational_monic_form():
    s, t = HomPoly.variable(2, 0), HomPoly.variable(2, 1)
    f = s * 2 + t
    g = f * (s * 2 - t)
    h = binary_gcd(f, g)
    assert h == s + t * Fraction(1, 2)
    assert h.terms == {(1, 0): 1, (0, 1): Fraction(1, 2)}
    for c in h.terms.values():
        _assert_exact(c)
    lone = binary_gcd(HomPoly.zero(2, 0), f)
    assert lone.terms == {(1, 0): 1, (0, 1): Fraction(1, 2)}


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 4)])
def test_chow_values_are_exact(n, d):
    ctx = VeroneseContext(n, d)
    chern = chern_normal(ctx)
    inverse = ChowClass.line(n, d).inverse()
    assert (chern * inverse).coeffs[0] == 1
    hp = hilbert_poly(normal_presentation(ctx))
    values = [*chern.coeffs, *inverse.coeffs, *hp.alphas]
    values += [hp.evaluate(m) for m in range(-3, 4)]
    values += [hp.evaluate(Fraction(1, 2)), normal_stats(ctx).slope]
    values += [k_bundle_stats(ctx, i).slope for i in range(1, d + 2)]
    for x in values:
        _assert_exact(x)


def test_chow_values_keep_both_kinds():
    assert normal_stats(VeroneseContext(1, 2)).slope == 4
    assert type(normal_stats(VeroneseContext(1, 2)).slope) is int
    assert normal_stats(VeroneseContext(2, 3)).slope == Fraction(27, 7)
    assert _kinds(ChowClass(1, (2, 1)).inverse().coeffs) == {Fraction}
    assert ChowClass(1, (Fraction(4, 2), 1)).coeffs == (2, 1)
    assert _kinds(ChowClass(2, (1, 3, 0)).inverse().coeffs) == {int}
    hp = HilbertPoly((Fraction(6, 3), 1, 1))
    assert hp.alphas == (2, 1, 1) and _kinds(hp.alphas) == {int}
    assert hp.evaluate(1) == Fraction(7, 2) and hp.evaluate(2) == 6
    assert type(hp.evaluate(2)) is int
