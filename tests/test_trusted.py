"""Results built without re-validation equal their public rebuilds.

`HomPoly._trusted`, `GradedMap._trusted` and `QMatrix._trusted` skip the
structural checks of the public constructors for results whose validity
follows from valid operands.  Each result below is rebuilt through the
public constructor, which checks everything and normalizes every scalar,
and must come back equal, with the same coefficient types (`Fraction(2,
1) == 2`, so types are compared explicitly) and tuple rows.  Inputs carry
Fraction coefficients, so that sums and products can be integral.
"""

from fractions import Fraction

import pytest

from veronese.bundles import (
    VeroneseContext,
    _monomial_column,
    delta_matrix,
    euler_presentation,
    normal_presentation,
    theta_matrix,
    xi_matrix,
)
from veronese.curves import _draw, _from_rows, rational_normal, rnc
from veronese.gradedmap import CurveParam, GradedMap
from veronese.linalg import QMatrix
from veronese.poly import HomPoly, monomials
from veronese.prng import SplitMix64
from veronese.symlin import (
    LinearSES,
    injection_via_symmetrize_then_dualize,
    quotient_via_dualize_then_symmetrize,
    quotient_via_symmetrize_then_dualize,
    random_ses,
)
from veronese.verify import _random_map, _random_poly

SEEDS = range(8)
_COEFFS = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(5, 6))


def _coeff(rng):
    return _COEFFS[rng.next_below(len(_COEFFS))]


def _poly(rng, nv, deg):
    return HomPoly(nv, deg, {m: _coeff(rng) for m in monomials(nv, deg)})


def _map(rng, nv, src, tgt):
    return GradedMap(
        nv, src, tgt,
        [[_poly(rng, nv, t - s) if t >= s else HomPoly.zero(nv, 0) for s in src] for t in tgt],
    )


def _types(values):
    return [type(x) for x in values]


def _same_poly(p):
    assert all(type(m) is tuple for m in p.terms)
    q = HomPoly(p.num_vars, p.degree, p.terms)
    assert (q.num_vars, q.degree, q.terms) == (p.num_vars, p.degree, p.terms)
    assert _types(q.terms.values()) == _types(p.terms.values())


def _same_map(g):
    rows = g.entries
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    twists = g.source_twists + g.target_twists
    assert type(g.source_twists) is tuple and type(g.target_twists) is tuple
    assert _types(twists) == [int] * len(twists)
    for row in rows:
        for e in row:
            _same_poly(e)
    h = GradedMap(g.num_vars, g.source_twists, g.target_twists, rows)
    assert h == g
    if g.num_vars == 2:
        def by_place(row_terms):
            return [{(j, b): (c, type(c)) for j, b, c in terms} for terms in row_terms]

        assert by_place(h.row_terms()) == by_place(g.row_terms())


def _same_matrix(m):
    assert type(m.data) is tuple and all(type(row) is tuple for row in m.data)
    q = QMatrix(m.data, cols=m.cols)
    assert (q.rows, q.cols, q.data) == (m.rows, m.cols, m.data)
    assert [_types(row) for row in q.data] == [_types(row) for row in m.data]


@pytest.mark.parametrize("seed", SEEDS)
def test_form_arithmetic(seed):
    rng = SplitMix64(seed)
    nv, deg, e = rng.next_int(1, 3), rng.next_int(0, 3), rng.next_int(1, 2)
    p, q = _poly(rng, nv, deg), _poly(rng, nv, deg)
    r = _poly(rng, nv, rng.next_int(0, 2))
    forms = [_poly(rng, 2, e) for _ in range(nv)]
    results = [p + q, p - q, -p, p * q, p * r, p * 2, p * Fraction(2, 3), p * 0]
    results += [p.substitute(forms), p.power(2), _random_poly(rng, nv, deg)]
    results += [p.differentiate(i) for i in range(nv)]
    for x in results:
        _same_poly(x)


@pytest.mark.parametrize("seed", SEEDS)
def test_curve_rows(seed):
    """`curves._from_rows` lists the monomials s^(e-k) t^k itself; zero
    coefficients, as in the rational normal curves' rows, are dropped."""
    rng = SplitMix64(seed)
    n = rng.next_int(1, 4)
    e = rng.next_int(1, n)
    rows = [[(k + 1) * (i == k) - (i == k + 1) for k in range(e + 1)] for i in range(n + 1)]
    for curve in (_draw(n, e, seed), rational_normal(n, e), _from_rows(e, rows)):
        assert len(curve.forms) == n + 1
        for form in curve.forms:
            _same_poly(form)
            assert (form.num_vars, form.degree) == (2, e)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("nv", [2, 3])
def test_map_operations_and_strata(seed, nv):
    rng = SplitMix64(seed)
    src = sorted(rng.next_int(-2, 0) for _ in range(rng.next_int(1, 2)))
    mid = sorted(rng.next_int(0, 2) for _ in range(rng.next_int(1, 3)))
    tgt = sorted(mid[-1] + rng.next_int(0, 1) for _ in range(rng.next_int(1, 2)))
    inner, outer = _map(rng, nv, src, mid), _map(rng, nv, mid, tgt)
    base = rnc(nv - 1, seed)
    curve = CurveParam(base.degree, tuple(f * Fraction(1, 2) for f in base.forms))
    results = [
        outer.compose(inner),
        inner.twist(rng.next_int(1, 3)),
        inner.twist(-1),
        inner.dual(),
        outer.dual().dual(),
        inner.pullback(curve),
        outer.compose(inner).pullback(curve).dual(),
        _random_map(rng, nv, src, mid),
    ]
    for g in results:
        _same_map(g)
        for m in range(-1, 3):
            _same_matrix(g.stratum(m))


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (2, 3), (3, 2), (1, 4)])
def test_presentations(n, d):
    ctx = VeroneseContext(n, d)
    maps = [theta_matrix(ctx), normal_presentation(ctx), euler_presentation(n)]
    maps += [xi_matrix(ctx, i) for i in range(1, d + 1)]
    maps += [delta_matrix(ctx, d - 1), _monomial_column(n, d - 1).twist(1)]
    for g in maps:
        _same_map(g)


@pytest.mark.parametrize("seed", SEEDS)
def test_transpose_and_rref(seed):
    rng = SplitMix64(seed)
    rows, cols = rng.next_int(0, 4), rng.next_int(0, 4)
    a = QMatrix([[_coeff(rng) for _ in range(cols)] for _ in range(rows)], cols=cols)
    for m in (a, a.transpose()):
        _same_matrix(m.transpose())
        _same_matrix(m.rref()[0])


def _rational_ses(rng):
    while True:
        n = rng.next_int(2, 4)
        m = rng.next_int(1, n - 1)
        phi = QMatrix([[_coeff(rng) for _ in range(m)] for _ in range(n)], cols=m)
        kernel = phi.transpose().kernel_basis()
        if len(kernel) == n - m:
            return LinearSES(phi, QMatrix([[x for (x,) in v.data] for v in kernel], cols=n))


@pytest.mark.parametrize("seed", SEEDS)
def test_symmetric_power_routes(seed):
    for ses in (random_ses(seed), _rational_ses(SplitMix64(seed))):
        for i in (1, 2, 3):
            _same_matrix(injection_via_symmetrize_then_dualize(ses, i))
            _same_matrix(quotient_via_symmetrize_then_dualize(ses, i))
            _same_matrix(quotient_via_dualize_then_symmetrize(ses, i))
