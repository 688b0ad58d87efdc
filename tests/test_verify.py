"""`verify` reads line and RNC types through `restriction_type`, and
`check_restriction_routes` compares that route with the direct scan."""

import json
from collections import Counter
from math import comb

import pytest

import veronese.verify as verify_mod
from veronese import bundles
from veronese.cli import main
from veronese.gradedmap import CurveParam
from veronese.p1split import SplittingType, splitting_type


def _moved_at_d2(ctx, curve, st):
    """At d = 2, the top degree raised and the next one lowered: the sum kept."""
    degs = st.degrees
    if ctx.d != 2 or len(degs) < 2:
        return st
    return SplittingType((degs[0] + 1, degs[1] - 1, *degs[2:]))


def _rest_plus_one(ctx, curve, st):
    """At d >= 3, one more trivial block O(de)."""
    return SplittingType(st.degrees + (ctx.d * curve.degree,)) if ctx.d >= 3 else st


def _e1_blocks_dropped(ctx, curve, st):
    """At d >= 3 on a span P^k with k < n, the n - k blocks of E_1 left out."""
    k = len(curve.span) - 1
    if ctx.d == 2 or k == ctx.n:
        return st
    sub = CurveParam(curve.degree, tuple(curve.forms[i] for i in curve.span))
    e1 = splitting_type(bundles._monomial_column(k, ctx.d - 1).twist(1).pullback(sub))
    left = Counter(st.degrees)
    left.subtract(e1.degrees * (ctx.n - k))
    return SplittingType(tuple(left.elements()))


def _tangent_doubled(ctx, curve, st):
    """At d = 2, the tangent degrees doubled in place of their symmetric square."""
    if ctx.d != 2:
        return st
    tangent = splitting_type(bundles.euler_presentation(ctx.n).pullback(curve))
    return SplittingType(tuple(2 * a for a in tangent.degrees))


def _mutate_span_type(monkeypatch, change):
    """`bundles._span_type`, which `_orbit_type` and the k < e curves both
    call, with its result passed through `change`."""
    real = bundles._span_type
    monkeypatch.setattr(bundles, "_span_type", lambda ctx, curve: change(ctx, curve, real(ctx, curve)))


@pytest.mark.usefixtures("fresh_orbit_memo")
@pytest.mark.parametrize(
    "change, failing",
    [
        (_moved_at_d2, {"line_restriction_d2", "rnc_restriction_d2"}),
        (_rest_plus_one, {"rnc_balanced", "grauert_mulich_chern"}),
        (_e1_blocks_dropped, {"grauert_mulich_chern"}),
        (_tangent_doubled, {"line_restriction_d2", "rnc_restriction_d2"}),
    ],
)
def test_verify_fast_fails_on_a_broken_restriction_type(capsys, monkeypatch, change, failing):
    """Each mutation of the restriction route fails `verify --scope fast`
    in the checks whose curves it reaches, and in no other."""
    _mutate_span_type(monkeypatch, change)
    code = main(["verify", "--scope", "fast"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == failing


def test_restriction_routes_agree_on_the_frozen_cases():
    cases = verify_mod.route_cases()
    assert verify_mod.check_restriction_routes(cases) == (
        True, "13 curves: restriction_type equals the direct scan"
    )
    labels = [label for label, _, _ in cases]
    assert len(set(labels)) == len(labels)
    orbits = kinds = 0
    for label, ctx, curve in cases:
        n, d, e, k = ctx.n, ctx.d, curve.degree, len(curve.span) - 1
        where = "a non-coordinate" if "non-coordinate" in label else "the coordinate"
        assert label.endswith(f" (e={e}) in {where} P^{k} of P^{n}, d={d}"), label
        assert comb(n + d, d) <= 120 and e <= 6, label
        nonzero = [not f.is_zero() for f in curve.forms]
        if "non-coordinate" in label:
            assert k < n and all(nonzero), label
        else:
            assert nonzero == [True] * (k + 1) + [False] * (n - k), label
        orbits += k == e
        kinds += k < e
    assert orbits == 3 and kinds == 10
    assert [label.split(" (")[0] for label, _, _ in cases[:3]] == ["line", "conic", "twisted cubic"]
    assert {ctx.d for _, ctx, _ in cases} == {2, 3, 4}
    for name in ("double cover of a line", "cuspidal cubic", "plane quartic", "plane quintic", "plane sextic"):
        where = {label.split(" in ")[1].split(" P^")[0] for label, _, _ in cases if label.startswith(name)}
        assert where == {"a non-coordinate", "the coordinate"}, name


@pytest.mark.usefixtures("fresh_orbit_memo")
@pytest.mark.parametrize(
    "change, case",
    [
        (_moved_at_d2, "conic (e=2) in a non-coordinate P^2 of P^4, d=2"),
        (_rest_plus_one, "line (e=1) in a non-coordinate P^1 of P^3, d=3"),
        (_e1_blocks_dropped, "line (e=1) in a non-coordinate P^1 of P^3, d=3"),
        (_tangent_doubled, "conic (e=2) in a non-coordinate P^2 of P^4, d=2"),
    ],
)
def test_restriction_routes_name_the_case_a_mutated_span_type_breaks(monkeypatch, change, case):
    cases = verify_mod.route_cases()
    label, ctx, curve = next(c for c in cases if c[0] == case)
    good = bundles.restriction_type(ctx, curve)
    bundles._orbit_type.cache_clear()
    _mutate_span_type(monkeypatch, change)
    bad = bundles.restriction_type(ctx, curve)
    assert bad != good
    ok, detail = verify_mod.check_restriction_routes(cases)
    assert not ok
    assert detail == f"{case}: restriction_type {bad.degrees}, direct scan {good.degrees}"
