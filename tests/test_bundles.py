from fractions import Fraction
from math import comb, factorial

import pytest

from veronese import bundles, gradedmap, linalg
from veronese.bundles import (
    KBundleStats,
    VeroneseContext,
    VeroneseDegreeError,
    delta_matrix,
    euler_presentation,
    k_bundle_stats,
    normal_presentation,
    restriction_type,
    theta_matrix,
    verify_dual_identity,
    xi_matrix,
)
from veronese.curves import random_line, rational_normal, rnc, standard_line
from veronese.gradedmap import BasePointError, CurveParam, GradedMap
from veronese.linalg import pivot_columns, rank
from veronese.p1split import SplittingType, splitting_type
from veronese.poly import HomPoly, monomials
from veronese.prng import SplitMix64


def test_context_rejects_degree_one():
    with pytest.raises(VeroneseDegreeError):
        VeroneseContext(3, 1)


@pytest.mark.parametrize("n, d", [(1.5, 2), (2, 2.5), (2.0, 2)])
def test_context_refuses_non_integers(n, d):
    with pytest.raises(TypeError):
        VeroneseContext(n, d)


def test_context_takes_integer_like_values():
    ctx = VeroneseContext(True, 2)
    assert ctx.n == 1 and type(ctx.n) is int
    assert ctx == VeroneseContext(1, 2)


def test_context_sym_dim():
    assert VeroneseContext(2, 2).sym_dim == 6
    assert VeroneseContext(3, 4).sym_dim == comb(7, 4)


def test_theta_n1_d2_exact_matrix():
    th = theta_matrix(VeroneseContext(1, 2))
    assert th.source_twists == (-1, -1)
    assert th.target_twists == (0, 0, 0)
    want = [
        [HomPoly.variable(2, 0, 2), HomPoly.zero(2, 1)],
        [HomPoly.variable(2, 1), HomPoly.variable(2, 0)],
        [HomPoly.zero(2, 1), HomPoly.variable(2, 1, 2)],
    ]
    assert [list(r) for r in th.entries] == want


def test_theta_n1_d3_first_column():
    th = theta_matrix(VeroneseContext(1, 3))
    assert th.shape == (4, 2)
    col = [th.entry(i, 0) for i in range(4)]
    assert col[0] == HomPoly.monomial(2, (2, 0), 3)
    assert col[1] == HomPoly.monomial(2, (1, 1), 2)
    assert col[2] == HomPoly.monomial(2, (0, 2), 1)
    assert col[3].is_zero()


def test_theta_shape():
    for n, d in [(2, 2), (3, 2), (2, 4)]:
        th = theta_matrix(VeroneseContext(n, d))
        assert th.shape == (comb(n + d, d), n + 1)


def test_theta_strata_full_column_rank():
    for n, d in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        th = theta_matrix(VeroneseContext(n, d))
        for m in range(d - 1, d + 3):
            s = th.stratum(m)
            assert s.rank() == s.cols


def test_normal_presentation_twists():
    pres = normal_presentation(VeroneseContext(2, 2))
    assert pres.source_twists == (1, 1, 1)
    assert pres.target_twists == (2,) * 6
    # cokernel rank C(4,2) - 3
    assert len(pres.target_twists) - len(pres.source_twists) == 3


def test_normal_presentation_is_fresh_on_every_call():
    """Each call builds its own map, equal to theta twisted by d: same
    twists, same entries with their degrees, and the same row terms along
    a curve, which is all a restriction reads.  A change to one call's
    entries does not reach the next call."""
    for n in range(1, 6):
        for d in range(2, 6):
            ctx = VeroneseContext(n, d)
            first, fresh = normal_presentation(ctx), theta_matrix(ctx).twist(d)
            second = normal_presentation(ctx)
            assert first is not second
            assert theta_matrix(ctx) is not theta_matrix(ctx)
            for pres in (first, second):
                assert pres.source_twists == fresh.source_twists
                assert pres.target_twists == fresh.target_twists
                assert [[(e.degree, e.terms) for e in row] for row in pres.entries] == [
                    [(e.degree, e.terms) for e in row] for row in fresh.entries
                ]
                curve = rnc(n, 1)
                assert pres.pullback(curve).row_terms() == fresh.pullback(curve).row_terms()
            first.entries[0][0].terms.clear()
            assert normal_presentation(ctx).entries[0][0].terms == fresh.entries[0][0].terms != {}


def test_normal_presentation_conic_cokernel():
    pres = normal_presentation(VeroneseContext(1, 2)).pullback(standard_line(1))
    assert splitting_type(pres).degrees == (4,)


def test_theta_entries_are_the_partial_derivatives():
    for n in range(1, 5):
        for d in range(2, 6):
            ctx = VeroneseContext(n, d)
            nv = ctx.num_vars
            th = theta_matrix(ctx)
            want = [
                [HomPoly.monomial(nv, g).differentiate(i) for i in range(nv)]
                for g in monomials(nv, d)
            ]
            assert [list(row) for row in th.entries] == want
            assert all(e.degree == d - 1 for row in th.entries for e in row)
            assert normal_presentation(ctx) == th.twist(d)


def test_xi_n1_first_step():
    ctx = VeroneseContext(1, 2)
    xi1 = xi_matrix(ctx, 1)
    assert xi1.source_twists == (1, 1)
    assert xi1.target_twists == (2,)
    assert xi1.entries[0][0] == HomPoly.variable(2, 0)
    assert xi1.entries[0][1] == HomPoly.variable(2, 1)


def test_xi_shapes_and_surjective_strata():
    # strata are surjective from m = i-1 on; below that the first cohomology
    # of the symmetric-power kernel can obstruct (see the boundary test)
    ctx = VeroneseContext(2, 3)
    for i in (1, 2, 3):
        xi = xi_matrix(ctx, i)
        assert xi.shape == (comb(2 + i - 1, i - 1), comb(2 + i, i))
        for m in range(i - 1, i + 3):
            s = xi.stratum(m)
            if s.rows:
                assert s.rank() == s.rows


def test_xi_stratum_boundary_not_surjective():
    # at m = i-d the section-level map can drop rank even though the sheaf
    # map is surjective: contraction of quadric constants hits a 3-dim
    # subspace of the 4-dim target
    s = xi_matrix(VeroneseContext(1, 2), 2).stratum(0)
    assert (s.rows, s.cols) == (4, 3)
    assert s.rank() == 3


def _xi_by_search(ctx, i):
    """xi built the slow way: every (row b, column g) pair searched for g = b + e_j."""
    nv = ctx.num_vars

    def single_step(b, g):
        j = None
        for k, (x, y) in enumerate(zip(b, g)):
            if y == x + 1:
                if j is not None:
                    return None
                j = k
            elif y != x:
                return None
        return j

    cols = monomials(nv, i)
    rows = []
    for b in monomials(nv, i - 1):
        row = []
        for g in cols:
            j = single_step(b, g)
            row.append(HomPoly.zero(nv, 1) if j is None else HomPoly.variable(nv, j, g[j]))
        rows.append(row)
    return GradedMap(nv, [ctx.d - i] * len(cols), [ctx.d - i + 1] * len(rows), rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_xi_matches_pairwise_search(n, d):
    ctx = VeroneseContext(n, d)
    for i in range(1, d + 1):
        assert xi_matrix(ctx, i).to_json() == _xi_by_search(ctx, i).to_json()


def test_xi_index_out_of_range():
    ctx = VeroneseContext(2, 2)
    with pytest.raises(ValueError):
        xi_matrix(ctx, 0)
    with pytest.raises(ValueError):
        xi_matrix(ctx, 3)


def test_delta_full_contraction_shape():
    ctx = VeroneseContext(2, 3)
    d = delta_matrix(ctx, 3)
    assert d.source_twists == (0,) * 10
    assert d.target_twists == (3,)


def test_delta_step_recursion_cross_context():
    # the (i+1)-step contraction is the twisted one-step contraction of the
    # smaller context composed with the i-step one
    for n, d in [(1, 3), (2, 3), (2, 4)]:
        ctx = VeroneseContext(n, d)
        for i in range(1, d - 1):
            step_ctx = VeroneseContext(n, d - i) if d - i >= 2 else None
            if step_ctx is None:
                continue
            step = xi_matrix(step_ctx, d - i).twist(i)
            assert step.compose(delta_matrix(ctx, i)) == delta_matrix(ctx, i + 1)


def test_delta_surjective_strata_window():
    # the one-step contraction is xi_d: surjective strata from m = d-1 up
    for n, d in [(1, 2), (1, 3), (2, 2)]:
        ctx = VeroneseContext(n, d)
        dm = delta_matrix(ctx, 1)
        for m in range(d - 1, 3 * d + 1):
            s = dm.stratum(m)
            assert s.rows and s.rank() == s.rows


def test_dual_identity_small():
    for n, d in [(1, 2), (2, 2), (2, 3)]:
        rep = verify_dual_identity(VeroneseContext(n, d))
        assert rep.ok
        assert rep.is_scalar
        assert rep.scale == factorial(d - 1)


def test_dual_identity_reports_all_row_scales():
    rep = verify_dual_identity(VeroneseContext(2, 3))
    assert rep.row_scales == (Fraction(2),) * 3


def test_dual_identity_report_json():
    assert verify_dual_identity(VeroneseContext(2, 3)).to_json() == {
        "ok": True,
        "rowScales": ["2", "2", "2"],
        "isScalar": True,
        "scale": "2",
        "detail": "delta^2 = 2 * dual(theta); scalar diagonal = (d-1)!",
    }


def test_dual_identity_with_shifted_twists_disagrees(monkeypatch):
    real = bundles.delta_matrix
    monkeypatch.setattr(bundles, "delta_matrix", lambda ctx, i: real(ctx, i).twist(1))
    rep = verify_dual_identity(VeroneseContext(2, 3))
    assert rep == bundles.DualIdentityReport(False, (), False, None, "twist lists disagree")
    assert rep.to_json()["scale"] is None


def _tamper_delta(monkeypatch, edit):
    """Make `verify_dual_identity` compare against delta^(d-1) with its
    rows of forms passed through `edit` first."""
    real = bundles.delta_matrix

    def tampered(ctx, i):
        m = real(ctx, i)
        rows = [list(row) for row in m.entries]
        edit(rows)
        return GradedMap(m.num_vars, m.source_twists, m.target_twists, rows)

    monkeypatch.setattr(bundles, "delta_matrix", tampered)


def test_dual_identity_with_one_row_rescaled_is_not_scalar(monkeypatch):
    def rescale(rows):
        rows[1] = [f * 3 for f in rows[1]]

    _tamper_delta(monkeypatch, rescale)
    rep = verify_dual_identity(VeroneseContext(2, 3))
    assert rep.ok and not rep.is_scalar and rep.scale is None
    assert rep.row_scales == (2, 6, 2)
    assert rep.detail == "diagonal rescaling exists but row scales are not constant"


@pytest.mark.parametrize("zeroed", [True, False])
def test_dual_identity_with_the_zero_pattern_changed_is_not_proportional(monkeypatch, zeroed):
    """Zeroing the second nonzero entry of row 1, or filling the first
    zero entry there, breaks b == scale * a at that entry."""
    changed = []

    def change(rows):
        c = [c for c, f in enumerate(rows[1]) if f.is_zero() != zeroed][int(zeroed)]
        rows[1][c] = HomPoly.zero(3, 2) if zeroed else HomPoly.monomial(3, (2, 0, 0))
        changed.append(c)

    _tamper_delta(monkeypatch, change)
    rep = verify_dual_identity(VeroneseContext(2, 3))
    assert not rep.ok and not rep.is_scalar and rep.scale is None
    assert rep.row_scales == (2,)
    assert rep.detail == f"rows not proportional at (1,{changed[0]})"


def test_dual_identity_with_one_row_zeroed_has_no_invertible_scale(monkeypatch):
    def zero_row(rows):
        rows[1] = [HomPoly.zero(3, f.degree) for f in rows[1]]

    _tamper_delta(monkeypatch, zero_row)
    rep = verify_dual_identity(VeroneseContext(2, 3))
    assert not rep.ok and not rep.is_scalar and rep.scale is None
    assert rep.row_scales == (2,)
    assert rep.detail == "row 1 gives no invertible scale"


def test_k_stats_top_level_is_trivial_bundle():
    for n, d in [(1, 2), (2, 2), (3, 4)]:
        st = k_bundle_stats(VeroneseContext(n, d), d + 1)
        assert st.degree == 0 and st.slope == 0
        assert st.rank == comb(n + d, d)


def test_k_stats_closed_forms():
    assert k_bundle_stats(VeroneseContext(1, 2), 1) == KBundleStats(
        1, 1, -2, Fraction(-2)
    )
    assert k_bundle_stats(VeroneseContext(2, 2), 1) == KBundleStats(
        1, 3, -3, Fraction(-1)
    )


def test_k_stats_index_range():
    ctx = VeroneseContext(2, 2)
    with pytest.raises(ValueError):
        k_bundle_stats(ctx, 0)
    with pytest.raises(ValueError):
        k_bundle_stats(ctx, 4)


def test_slope_chain_strict_up_to_eight():
    for n in range(1, 9):
        for d in range(2, 9):
            ctx = VeroneseContext(n, d)
            slopes = [k_bundle_stats(ctx, i).slope for i in range(1, d + 2)]
            assert all(a < b for a, b in zip(slopes, slopes[1:]))
            assert slopes[-1] == 0


def test_k_degree_cross_check_on_line():
    # splitting-degree sum of the dual kernel restriction equals the closed form
    for n in (1, 2, 3):
        for d in (2, 3):
            ctx = VeroneseContext(n, d)
            line = standard_line(1) if n == 1 else random_line(n, 23)
            for i in range(1, d + 1):
                pres = delta_matrix(ctx, i).pullback(line).dual()
                st = splitting_type(pres)
                want = k_bundle_stats(ctx, i)
                assert -st.degree == want.degree
                assert st.rank == want.rank


def test_pulling_back_the_dual_equals_dualizing_the_pullback():
    """`verify.check_k_tower_slopes` pulls back the dual of each contraction,
    the test above dualizes its pullback: on the full-scope (n, d, i) grid,
    with the same lines, both routes give one map."""
    for n in (1, 2, 3):
        for d in (2, 3):
            ctx = VeroneseContext(n, d)
            line = standard_line(1) if n == 1 else random_line(n, 11)
            for i in range(1, d + 1):
                delta = delta_matrix(ctx, i)
                assert delta.dual().pullback(line) == delta.pullback(line).dual(), (n, d, i)


def test_euler_consistency():
    # theta composed with the tautological column is d times the monomial column
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            ctx = VeroneseContext(n, d)
            comp = theta_matrix(ctx).compose(euler_presentation(n).twist(-d))
            want = GradedMap(
                n + 1,
                [-d],
                [0] * ctx.sym_dim,
                [[HomPoly.monomial(n + 1, g, d)] for g in monomials(n + 1, d)],
            )
            assert comp == want


def _coefficients(curve: CurveParam) -> list[list]:
    """The (e+1) x (n+1) coefficient matrix: row j holds each form's
    coefficient of s^(e-j) t^j."""
    e = curve.degree
    return [[f.terms.get((e - j, j), 0) for f in curve.forms] for j in range(e + 1)]


def _mixed_curve(e: int, base: list[list], mix: list[list]) -> CurveParam:
    """The curve whose form i has the coefficient row sum_b mix[i][b] base[b]."""
    rows = [[sum(m * b[j] for m, b in zip(row, base)) for j in range(e + 1)] for row in mix]
    return CurveParam(e, tuple(HomPoly(2, e, {(e - j, j): c for j, c in enumerate(r)}) for r in rows))


def _curve_in_span(rng, n: int, base: list[list], fractions: bool) -> CurveParam | None:
    """The curve whose n+1 forms are random combinations of the base forms'
    coefficient rows, all nonzero, so that for n > k it sits in a P^k that
    no coordinate subspace is; None if the combinations lose rank or the
    curve has a base point."""
    k, e = len(base) - 1, len(base[0]) - 1

    def draw():
        x = rng.next_int(-3, 3)
        return Fraction(x, rng.next_int(1, 3)) if fractions else x

    mix = [[draw() for _ in range(k + 1)] for _ in range(n + 1)]
    if not all(any(row) for row in mix) or rank(mix, k + 1) < k + 1:
        return None
    try:
        return _mixed_curve(e, base, mix)
    except BasePointError:
        return None


def _span_grid():
    """(ctx, curve) over (k, e) in (1, 1..2), (2, 2..5), (3, 3..5), n = k..k+3,
    d = 2..4 with C(n+d, d) <= 400, two curves each, one in three at d <= 3
    with Fraction coefficients; (1, 2) is a double cover of a line and (2, 4) at
    n = 4 a plane quartic in P^4.  Then the cuspidal cubic (s^3, s t^2, t^3)
    in P^2 and spread over P^3..P^5."""
    rng = SplitMix64(2615)
    drawn = 0
    for k, es in ((1, (1, 2)), (2, (2, 3, 4, 5)), (3, (3, 4, 5))):
        for e in es:
            for n in range(k, k + 4):
                for d in (2, 3, 4):
                    if comb(n + d, d) > 400:
                        continue
                    for _ in range(2):
                        curve = None
                        while curve is None:
                            base = [
                                [rng.next_int(-3, 3) for _ in range(e + 1)] for _ in range(k + 1)
                            ]
                            if rank(base, e + 1) == k + 1:
                                curve = _curve_in_span(rng, n, base, d < 4 and drawn % 3 == 2)
                        drawn += 1
                        yield VeroneseContext(n, d), curve
    cusp = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for n in (2, 3, 4, 5):
        curve = None
        while curve is None:
            curve = _curve_in_span(rng, n, cusp, n == 4)
        for d in (2, 3, 4):
            yield VeroneseContext(n, d), curve


def _plane_quartic() -> CurveParam:
    """A quartic whose three forms span a P^2 = P^n but not S_4: k < e."""
    rows = [[((2 * i + 3) * k * k + i) % 11 - 5 for k in range(5)] for i in range(3)]
    return _mixed_curve(4, rows, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_restriction_type_matches_the_direct_scan():
    """restriction_type reduces to Sym^2 of the tangent type at d = 2 and to
    the blocks of theta on the curve's span at d >= 3; the direct scan of
    the full pullback is the oracle."""
    checked = spans = 0
    for ctx, curve in _span_grid():
        want = splitting_type(normal_presentation(ctx).pullback(curve))
        assert restriction_type(ctx, curve) == want, (ctx, curve)
        checked += 1
        spans += rank(_coefficients(curve), ctx.num_vars) < ctx.num_vars
    assert checked == 228 and spans > 150


@pytest.mark.usefixtures("fresh_orbit_memo")
def test_restriction_type_reads_the_span_curve_param_computed(monkeypatch):
    """restriction_type ranks no coefficient matrix of the curve: it reads
    `curve.span`, which `CurveParam` computed when the curve was built.
    Forms that span S_e (a conic, a twisted cubic) take the torus-fixed
    member of their orbit, so only that curve's coefficients are ranked.
    A curve that spans P^n with k < e is the n - k = 0 case of the block
    formula and scans no E_1 column."""
    plane7 = [[((i + 2) * k * k + i + 1) % 19 - 9 for k in range(8)] for i in range(3)]
    cases = [
        # a conic whose six forms span a P^2 of P^5 that no coordinate plane is
        (VeroneseContext(5, 3), _mixed_curve(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [
            [1, 1, 0], [0, 1, -1], [1, 0, 2], [2, -1, 1], [0, 1, 3], [1, -1, 0],
        ])),
        # a twisted cubic: k = n = e
        (VeroneseContext(3, 3), rnc(3, 5)),
        # a degree-7 plane curve in a P^2 of P^4; its second form is twice
        # the first, so the pivot forms are not the first three
        (VeroneseContext(4, 3), _mixed_curve(7, plane7, [
            [1, 1, 0], [2, 2, 0], [0, 1, -1], [1, 0, 2], [1, -1, 1],
        ])),
        # a plane quartic: k = n < e
        (VeroneseContext(2, 3), _plane_quartic()),
    ]
    want = [splitting_type(normal_presentation(ctx).pullback(curve)) for ctx, curve in cases]
    spans = [pivot_columns(_coefficients(curve), ctx.num_vars) for ctx, curve in cases]
    assert spans == [[0, 1, 2], [0, 1, 2, 3], [0, 2, 3], [0, 1, 2]]

    ranked, columns = [], []

    def spy(module, name):
        real = getattr(linalg, name)

        def call(rows, cols):
            rows = [list(row) for row in rows]
            ranked.append(rows)
            return real(rows, cols)

        monkeypatch.setattr(module, name, call, raising=False)

    for module in (bundles, gradedmap):
        spy(module, "rank")
        spy(module, "pivot_columns")
    column = bundles._monomial_column
    monkeypatch.setattr(
        bundles, "_monomial_column", lambda *args: columns.append(args) or column(*args)
    )
    for (ctx, curve), w, span in zip(cases, want, spans):
        ranked.clear()
        columns.clear()
        assert restriction_type(ctx, curve) == w, (ctx, curve)
        coeffs = _coefficients(curve)
        transposed = [list(col) for col in zip(*coeffs)]
        assert coeffs not in ranked and transposed not in ranked, (ctx, curve)
        if len(span) == curve.degree + 1:
            # the torus-fixed member is built and scanned once, then reused
            assert _coefficients(rational_normal(ctx.n, curve.degree)) in ranked
            assert len(columns) == (len(span) < ctx.num_vars), columns
            ranked.clear()
            columns.clear()
            assert restriction_type(ctx, curve) == w, (ctx, curve)
            assert columns == [] and ranked == [], (ctx, curve)
        elif len(span) == ctx.num_vars:
            assert columns == [] and ranked == [], (ctx, curve)
        else:
            # the spies do see the ranks of the sub-curve's own constructor
            sub = [[row[i] for i in span] for row in coeffs]
            assert sub in ranked or [list(col) for col in zip(*sub)] in ranked
            assert len(columns) == 1, columns


@pytest.mark.usefixtures("fresh_orbit_memo")
def test_restriction_type_computes_each_orbit_once(monkeypatch):
    """Curves whose forms span S_e are one GL_{n+1} orbit: the first is
    scanned along the torus-fixed `rational_normal(n, e)` and the rest read
    the memo of (ctx, e).  A curve with k < e scans every time."""
    for n in range(1, 7):
        assert rational_normal(n, 1) == standard_line(n)
        assert rational_normal(n, 1).to_json() == standard_line(n).to_json()
        assert rational_normal(n, n) == rnc(n, 0)
        assert rational_normal(n, n).to_json() == rnc(n, 0).to_json()
        for e in range(1, n + 1):
            assert rational_normal(n, e).span == tuple(range(e + 1))
    for n, e in ((2, 0), (2, 3)):
        with pytest.raises(ValueError):
            rational_normal(n, e)

    scans = []

    def counted(pres):
        scans.append(pres)
        return splitting_type(pres)

    rng = SplitMix64(2817)

    def rnc_in_span(n, e, fractions):
        curve = None
        while curve is None:
            base = [[rng.next_int(-3, 3) for _ in range(e + 1)] for _ in range(e + 1)]
            if rank(base, e + 1) == e + 1:
                curve = _curve_in_span(rng, n, base, fractions)
        return curve

    monkeypatch.setattr(bundles, "splitting_type", counted)
    for ctx, e in ((VeroneseContext(5, 3), 2), (VeroneseContext(4, 2), 3)):
        curves = [rnc_in_span(ctx.n, e, i % 2 == 1) for i in range(5)]
        assert any(
            isinstance(c, Fraction) for curve in curves for f in curve.forms for c in f.terms.values()
        )
        for i, curve in enumerate(curves):
            assert len(curve.span) == e + 1 < ctx.num_vars
            scans.clear()
            got = restriction_type(ctx, curve)
            assert bool(scans) == (i == 0), (ctx, e, i)
            assert got == splitting_type(normal_presentation(ctx).pullback(curve)), (ctx, curve)
    # another degree in a context already seen is another orbit
    ctx = VeroneseContext(5, 3)
    for e in (1, 3):
        curve = rnc_in_span(ctx.n, e, False)
        scans.clear()
        assert restriction_type(ctx, curve) == splitting_type(
            normal_presentation(ctx).pullback(curve)
        )
        assert scans, e
    ctx = VeroneseContext(2, 3)
    curve = _plane_quartic()
    want = splitting_type(normal_presentation(ctx).pullback(curve))
    for _ in range(2):
        scans.clear()
        assert restriction_type(ctx, curve) == want
        assert scans


def test_curve_span_is_the_pivot_forms_and_not_part_of_the_value():
    """`CurveParam.span` is the ascending pivot columns of the coefficient
    matrix; the constructor, equality, hash, repr and JSON never see it."""
    rng = SplitMix64(2707)
    s, t = HomPoly.variable(2, 0), HomPoly.variable(2, 1)
    curves = [
        CurveParam(2, (s.power(2), HomPoly.zero(2, 2), t.power(2), s * t)),
        CurveParam(3, (s.power(3), s * t * t, t.power(3))),
        *(random_line(n, seed) for n in (1, 3, 6) for seed in (1, 2)),
        *(rnc(n, seed) for n in (1, 2, 4) for seed in (0, 3)),
    ]
    for k, e, n, fractions in ((1, 2, 3, False), (2, 4, 5, True), (3, 3, 3, True), (2, 6, 6, False)):
        curve = None
        while curve is None:
            base = [[rng.next_int(-3, 3) for _ in range(e + 1)] for _ in range(k + 1)]
            if rank(base, e + 1) == k + 1:
                curve = _curve_in_span(rng, n, base, fractions)
        curves.append(curve)
    assert any(
        any(isinstance(c, Fraction) for f in curve.forms for c in f.terms.values())
        for curve in curves
    )
    for curve in curves:
        assert curve.span == tuple(pivot_columns(_coefficients(curve), curve.ambient_vars))
        twin = CurveParam(curve.degree, curve.forms)
        object.__setattr__(twin, "span", ())
        assert twin == curve and hash(twin) == hash(curve)
        assert repr(twin) == repr(curve) and "span" not in repr(curve)
        assert twin.to_json() == curve.to_json() == CurveParam.from_json(curve.to_json()).to_json()
        with pytest.raises(TypeError):
            CurveParam(curve.degree, curve.forms, curve.span)
    assert curves[0].span == (0, 2, 3) and curves[1].span == (0, 1, 2)


def test_euler_presentation_is_the_column_of_variables():
    """The Euler map is the degree-1 monomial column: the same entries and
    twists as a column of `HomPoly.variable`, and the same pullback."""
    for n in range(1, 7):
        nv = n + 1
        want = GradedMap(nv, [0], [1] * nv, [[HomPoly.variable(nv, i)] for i in range(nv)])
        got = euler_presentation(n)
        assert (got.source_twists, got.target_twists) == (want.source_twists, want.target_twists)
        assert [[f.terms for f in row] for row in got.entries] == [
            [f.terms for f in row] for row in want.entries
        ]
        assert got == want
        curve = rnc(n, 1)
        assert got.pullback(curve).row_terms() == want.pullback(curve).row_terms()


def test_restriction_type_along_lines_is_the_closed_form():
    """Along a line, N = O(d+2)^(d-1) + O(d+1)^((d-1)(n-1)) + O(d)^rest:
    the degree-d RNC's normal bundle, n - 1 copies of E_1 = O(d+1)^(d-1),
    and trivial blocks."""
    for n in range(1, 11):
        for d in range(2, 7):
            ctx = VeroneseContext(n, d)
            hi, mid = d - 1, (d - 1) * (n - 1)
            rest = ctx.sym_dim - n - 1 - hi - mid
            want = SplittingType((d + 2,) * hi + (d + 1,) * mid + (d,) * rest)
            assert restriction_type(ctx, random_line(n, 10 * n + d)) == want, (n, d)


def test_restriction_type_refuses_a_curve_in_another_space():
    with pytest.raises(ValueError, match="curve lives in P\\^2, map in P\\^3"):
        restriction_type(VeroneseContext(3, 3), rnc(2, 0))
