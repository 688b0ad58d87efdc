import json
from fractions import Fraction
from importlib import resources

import pytest

from veronese import gradedmap, linalg
from veronese.curves import random_line, rnc, standard_line
from veronese.bundles import euler_presentation
from veronese.gradedmap import BasePointError, CurveParam, GradedMap, binary_gcd_many
from veronese.linalg import QMatrix, rank
from veronese.p1split import splitting_type
from veronese.poly import HomPoly
from veronese.prng import SplitMix64


def test_standard_line_forms():
    line = standard_line(2)
    assert line.forms[0] == HomPoly.variable(2, 0)
    assert line.forms[1] == HomPoly.variable(2, 1)
    assert line.forms[2].is_zero()


def test_standard_line_p1_is_identity():
    line = standard_line(1)
    assert line.degree == 1
    assert len(line.forms) == 2


def test_random_line_coefficient_rank():
    for seed in range(20):
        line = random_line(3, seed)
        # rank-2 enforced: some pair of forms is independent
        g = binary_gcd_many(line.forms)
        assert g.degree == 0


def test_random_line_golden():
    path = resources.files("veronese").joinpath("golden", "curves_v1.json")
    with path.open() as f:
        golden = json.load(f)
    assert random_line(2, 0).to_json() == golden["line,2,0"]
    assert rnc(3, 0).to_json() == golden["rnc,3,0"]


def test_random_lines_distinct_across_seeds():
    lines = {tuple(random_line(2, seed).to_json()["forms"]) for seed in range(30)}
    print(f"\ndistinct lines over 30 seeds: {len(lines)}/30")
    # a handful of collisions is fine; full collapse is not
    assert len(lines) > 20


def test_rnc_standard_parametrizations():
    assert [f.terms for f in rnc(2, 0).forms] == [
        {(2, 0): 1},
        {(1, 1): 1},
        {(0, 2): 1},
    ]
    assert [f.terms for f in rnc(3, 0).forms] == [
        {(3, 0): 1},
        {(2, 1): 1},
        {(1, 2): 1},
        {(0, 3): 1},
    ]


def test_rnc_random_seeds_base_point_free():
    for n in (2, 3, 4):
        for seed in range(5):
            curve = rnc(n, seed)
            assert binary_gcd_many(curve.forms).degree == 0
            assert curve.degree == n


def test_curve_param_rejects_base_point():
    s2 = HomPoly.monomial(2, (2, 0))
    st = HomPoly.monomial(2, (1, 1))
    with pytest.raises(BasePointError):
        CurveParam(2, (s2, st))


def test_curve_param_rejects_mixed_degrees():
    with pytest.raises(ValueError, match="inhomogeneous"):
        CurveParam(1, (HomPoly.variable(2, 0), HomPoly.monomial(2, (1, 1))))


def test_tangent_splitting_on_lines():
    for n in (2, 3, 4):
        st = splitting_type(euler_presentation(n).pullback(standard_line(n)))
        assert st.degrees == tuple([2] + [1] * (n - 1))


def test_tangent_splitting_on_rational_normal_curves():
    for n in (2, 3, 4):
        for seed in (0, 2):
            st = splitting_type(euler_presentation(n).pullback(rnc(n, seed)))
            assert st.degrees == (n + 1,) * n


def test_splitmix_reference_values():
    # first outputs for seed 0, pinned to the documented generator
    rng = SplitMix64(0)
    first = rng.next_u64()
    rng2 = SplitMix64(0)
    assert rng2.next_u64() == first
    assert SplitMix64(1).next_u64() != first


# -- the curve builder against the two draw loops it replaced -------------------


def _reference_standard_line(n):
    forms = [HomPoly.variable(2, 0), HomPoly.variable(2, 1)]
    return CurveParam(1, tuple(forms + [HomPoly.zero(2, 1)] * (n - 1)))


def _reference_random_line(n, seed):
    rng = SplitMix64(seed)
    while True:
        coeffs = [(rng.next_int(-9, 9), rng.next_int(-9, 9)) for _ in range(n + 1)]
        if QMatrix(coeffs).rank() == 2:
            break
    return CurveParam(1, tuple(HomPoly(2, 1, {(1, 0): a, (0, 1): b}) for a, b in coeffs))


def _reference_rnc(n, seed):
    if seed == 0:
        rows = QMatrix.identity(n + 1).data
    else:
        rng = SplitMix64(seed)
        while True:
            rows = [[rng.next_int(-9, 9) for _ in range(n + 1)] for _ in range(n + 1)]
            if QMatrix(rows).rank() == n + 1:
                break
    forms = tuple(HomPoly(2, n, {(n - k, k): c for k, c in enumerate(row) if c}) for row in rows)
    return CurveParam(n, forms)


def test_curves_match_reference_draw_loops():
    """Lines and RNCs built from coefficient rows by one draw loop are the
    curves the separate per-kind loops drew: n = 1..6, seeds 0..149."""
    for n in range(1, 8):
        assert standard_line(n).to_json() == _reference_standard_line(n).to_json()
    for n in range(1, 7):
        for seed in range(150):
            assert random_line(n, seed).to_json() == _reference_random_line(n, seed).to_json()
            assert rnc(n, seed).to_json() == _reference_rnc(n, seed).to_json()


@pytest.mark.parametrize(
    "make", [standard_line, lambda n: random_line(n, 3), lambda n: rnc(n, 0), lambda n: rnc(n, 3)]
)
def test_curve_makers_refuse_n_below_one(make):
    """Refused before any draw, which for a line with n < 1 would never end."""
    with pytest.raises(ValueError, match="^need n >= 1$"):
        make(0)


# -- the base-point check: a coefficient-rank certificate ahead of the Sylvester rank --


@pytest.fixture
def gcd_calls(monkeypatch):
    """Count the calls `CurveParam` makes to `binary_gcd_many`."""
    calls = []

    def spy(forms):
        calls.append(forms)
        return binary_gcd_many(forms)

    monkeypatch.setattr(gradedmap, "binary_gcd_many", spy)
    return calls


@pytest.fixture
def rank_calls(monkeypatch):
    """The column counts of the exact ranks `CurveParam` takes: n + 1 for
    the pivot forms of its (e+1) x (n+1) coefficient matrix, then
    len(span) * e for the Sylvester stratum of those pivot forms at 2e - 1."""
    calls = []

    def spy(name):
        real = getattr(linalg, name)

        def call(rows, cols):
            calls.append(cols)
            return real(rows, cols)

        monkeypatch.setattr(gradedmap, name, call)

    spy("rank")
    spy("pivot_columns")
    return calls


def test_spanning_curves_skip_the_gcd(gcd_calls):
    for n in range(1, 8):
        standard_line(n)
        for seed in range(5):
            random_line(n, seed)
            rnc(n, seed)
    CurveParam.from_json({"degree": 4, "forms": ["Z0^4", "Z0^3*Z1", "Z0^2*Z1^2", "Z0*Z1^3", "Z1^4"]})
    CurveParam.from_json({"degree": 2, "forms": ["1/2*Z0^2 - Z1^2", "Z0*Z1", "Z0^2", "0"]})
    rnc(40, 0)
    assert gcd_calls == []


def test_curves_that_do_not_span_are_decided_by_the_sylvester_rank(gcd_calls, rank_calls):
    s, t = HomPoly.variable(2, 0), HomPoly.variable(2, 1)
    CurveParam(2, (s.power(2), t.power(2)))
    CurveParam(3, (s.power(3), t.power(3), s * s * t + s * t * t))
    assert rank_calls == [2, 4, 3, 9]
    with pytest.raises(BasePointError, match="^parametrization has base point$"):
        CurveParam(2, (s.power(2), s * t))
    with pytest.raises(BasePointError, match="^parametrization has base point$"):
        CurveParam(1, (HomPoly.zero(2, 1), HomPoly.zero(2, 1)))
    assert rank_calls == [2, 4, 3, 9, 2, 4, 2, 0]
    assert gcd_calls == []


def _random_form(rng, degree):
    """A binary form with some coefficients zero and some Fractions."""
    terms = {}
    for b in range(degree + 1):
        kind = rng.next_below(4)
        c = 0 if kind == 0 else rng.next_int(-4, 4)
        terms[degree - b, b] = Fraction(c, rng.next_int(1, 5)) if kind == 1 else c
    return HomPoly(2, degree, terms)


def test_base_point_verdicts_match_the_gcd(gcd_calls, rank_calls):
    """2000 seeded sets of 2-6 forms of degree 1-7: some base-point free,
    the rest with a planted common factor of degree 1 to e (a power of s
    or of t, or a random form).  `CurveParam` accepts exactly the sets
    whose gcd has degree 0, by one coefficient rank when the forms span
    S_e and otherwise by the rank of the Sylvester stratum of its pivot
    forms, len(span) * e columns wide on every set, and never calls the
    gcd."""
    rng = SplitMix64(1616)
    s, t = HomPoly.variable(2, 0), HomPoly.variable(2, 1)
    certified = accepted = narrowed = refused = 0
    for _ in range(2000):
        e = rng.next_int(1, 7)
        k = rng.next_int(0, e) if rng.next_below(2) else 0
        planted = rng.next_below(3)
        h = s.power(k) if planted == 0 else t.power(k) if planted == 1 else _random_form(rng, k)
        forms = tuple(h * _random_form(rng, e - k) for _ in range(rng.next_int(2, 6)))
        g = binary_gcd_many(forms)
        free = not g.is_zero() and g.degree == 0
        # len(span): the number of pivot forms is the coefficient rank
        pivots = rank([[f.coeff((e - j, j)) for j in range(e + 1)] for f in forms], e + 1)
        rank_calls.clear()
        try:
            CurveParam(e, forms)
        except BasePointError as exc:
            assert not free and str(exc) == "parametrization has base point", forms
            refused += 1
        else:
            assert free, forms
            certified += pivots == e + 1
            accepted += pivots <= e
        assert rank_calls == ([len(forms)] if pivots == e + 1 else [len(forms), pivots * e]), forms
        narrowed += pivots < min(len(forms), e + 1)
    print(
        f"\ncertified {certified}, accepted by the Sylvester rank {accepted}, refused {refused};"
        f" {narrowed} Sylvester strata on fewer forms than given"
    )
    assert min(certified, accepted, narrowed, refused) >= 150
    assert gcd_calls == []


def test_the_sylvester_stratum_is_the_shifted_coefficient_rows(monkeypatch):
    """For forms that do not span S_e, `CurveParam` ranks the coefficient
    rows of its pivot forms shifted c = 0..e-1 places, transposed: entry
    for entry the `stratum_rows(2e - 1)` of [f_j for j in span] :
    O(-e)^len(span) -> O, which it never builds as a `GradedMap`.  The
    pivot forms are those that raise the rank of the forms before them."""
    built, ranked = [], []
    init = GradedMap.__init__

    def spy_init(self, *args):
        built.append(args)
        init(self, *args)

    def spy_rank(rows, cols, real=rank):
        rows = [list(row) for row in rows]
        ranked.append((rows, cols))
        return real(rows, cols)

    monkeypatch.setattr(GradedMap, "__init__", spy_init)
    monkeypatch.setattr(gradedmap, "rank", spy_rank)
    monkeypatch.setattr(
        gradedmap, "pivot_columns", lambda rows, cols: spy_rank(rows, cols, linalg.pivot_columns)
    )
    rng = SplitMix64(19)
    for e in range(1, 34):
        for count in range(2, 6):
            # at most e independent forms, so the coefficient rank is <= e
            basis = [_random_form(rng, e) for _ in range(min(count, e))]
            forms = tuple(basis + [basis[0] * (j + 2) for j in range(count - len(basis))])
            ranked.clear()
            try:
                CurveParam(e, forms)
            except BasePointError:
                pass
            assert built == [], (e, count)
            assert len(ranked) == 2, (e, count)
            rows = [[f.coeff((e - k, k)) for k in range(e + 1)] for f in forms]
            pivots = [
                f for j, f in enumerate(forms) if rank(rows[: j + 1], e + 1) > rank(rows[:j], e + 1)
            ]
            want = GradedMap(2, (-e,) * len(pivots), (0,), [pivots]).stratum_rows(2 * e - 1)
            assert ranked[1] == want, (e, count)
            built.clear()


def test_high_degree_curves_that_do_not_span_rank_with_no_exact_elimination(monkeypatch):
    """Three random integer forms of degree 16, 32 and 64 do not span S_e,
    so the Sylvester stratum decides them: its modular rank is full, so no
    exact elimination runs.  The same forms times s + 2t are refused."""
    echelon, echelon_calls = linalg._echelon, []

    def spy(m, cols):
        echelon_calls.append(cols)
        return echelon(m, cols)

    monkeypatch.setattr(linalg, "_echelon", spy)
    rng = SplitMix64(17)
    factor = HomPoly(2, 1, {(1, 0): 1, (0, 1): 2})
    for e in (16, 32, 64):
        forms = tuple(
            HomPoly(2, e, {(e - k, k): rng.next_int(-9, 9) for k in range(e + 1)}) for _ in range(3)
        )
        CurveParam(e, forms)
        assert echelon_calls == [], e
        with pytest.raises(BasePointError, match="^parametrization has base point$"):
            CurveParam(e + 1, tuple(factor * f for f in forms))
        echelon_calls.clear()
