import json
from fractions import Fraction

import pytest

from veronese.bundles import (
    VeroneseContext,
    euler_presentation,
    normal_presentation,
    theta_matrix,
)
from veronese.curves import random_line, rnc, standard_line
from veronese.gradedmap import (
    BasePointError,
    CurveParam,
    GradedMap,
    TwistMismatchError,
    binary_gcd,
)
from veronese import linalg
from veronese.linalg import QMatrix
from veronese.p1split import h0_direct
from veronese.poly import HomPoly, monomial_index, monomials
from veronese.prng import SplitMix64
from veronese.verify import _random_p1_presentation


def _var(i, nv=2):
    return HomPoly.variable(nv, i)


def _zero(nv=2, deg=0):
    return HomPoly.zero(nv, deg)


def _random_poly(rng, nv, deg):
    terms = {}
    for mono in monomials(nv, deg):
        c = rng.next_int(-4, 4)
        if c:
            terms[mono] = c
    return HomPoly(nv, deg, terms)


def _random_map(rng, nv, p, q, slo=-1, shi=0, tlo=1, thi=2):
    src = sorted(rng.next_int(slo, shi) for _ in range(q))
    tgt = sorted(rng.next_int(tlo, thi) for _ in range(p))
    rows = [
        [_random_poly(rng, nv, tgt[i] - src[j]) for j in range(q)] for i in range(p)
    ]
    return GradedMap(nv, src, tgt, rows)


# -- constructor -----------------------------------------------------------


def test_twists_must_be_integers():
    for twist in (0.9, "0"):
        with pytest.raises(TypeError):
            GradedMap(2, [twist], [1], [[_var(0)]])
        with pytest.raises(TypeError):
            GradedMap(2, [0], [twist], [[_zero()]])


@pytest.mark.parametrize(
    "source, target, entries, message",
    [
        ([0], [1, 1], [[_var(0)]], "row count != number of target twists"),
        ([0, 0], [1], [[_var(0)]], "column count != number of source twists"),
        ([0], [1], [[HomPoly.variable(3, 0)]], "entry variable count mismatch"),
        ([2], [1], [[_var(0)]], r"entry \(0,0\) must vanish: twist gap -1 < 0"),
        ([0, 0], [2], [[_zero(), _var(1)]], r"entry \(0,1\) has degree 1, expected 2"),
    ],
)
def test_graded_map_refuses_bad_entries(source, target, entries, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GradedMap(2, source, target, entries)


@pytest.mark.parametrize(
    "degree, forms, message",
    [
        (0, (HomPoly.constant(2, 1), HomPoly.constant(2, 2)), "parametrization degree must be >= 1"),
        (1, (_var(0),), "need at least two forms"),
        (1, (HomPoly.variable(3, 0), HomPoly.variable(3, 1)), "parametrization forms must be binary"),
    ],
)
def test_curve_param_refusals(degree, forms, message):
    with pytest.raises(ValueError, match=f"^{message}$") as info:
        CurveParam(degree, forms)
    assert not isinstance(info.value, BasePointError)


# -- compose ---------------------------------------------------------------


def test_compose_identity():
    rng = SplitMix64(1)
    f = _random_map(rng, 3, 2, 2)
    ident = GradedMap.identity(3, f.target_twists)
    assert ident.compose(f) == f


def test_compose_twist_mismatch():
    f = GradedMap(2, [0], [1], [[_var(0)]])
    g = GradedMap(2, [0], [1], [[_var(1)]])
    with pytest.raises(TwistMismatchError):
        g.compose(f)


def test_compose_delta_two_for_p1():
    # two contraction steps on the line compose to twice the monomial row
    from veronese.bundles import delta_matrix, xi_matrix

    ctx = VeroneseContext(1, 2)
    composed = xi_matrix(ctx, 1).compose(xi_matrix(ctx, 2))
    assert composed == delta_matrix(ctx, 2)
    assert composed.shape == (1, 3)
    row = composed.entries[0]
    assert row[0] == HomPoly.monomial(2, (2, 0), 2)
    assert row[1] == HomPoly.monomial(2, (1, 1), 2)
    assert row[2] == HomPoly.monomial(2, (0, 2), 2)
    # scalar strata of the single-row map are full rank
    for m in range(0, 4):
        s = composed.stratum(m)
        assert s.rank() == s.rows


# -- dual -------------------------------------------------------------------


def test_dual_involution():
    rng = SplitMix64(2)
    f = _random_map(rng, 2, 3, 2)
    assert f.dual().dual() == f


def test_dual_one_by_one():
    f = GradedMap(2, [0], [1], [[_var(0)]])
    d = f.dual()
    assert d.source_twists == (-1,) and d.target_twists == (0,)
    assert d.entries[0][0] == _var(0)


def test_binary_dual_is_built_from_row_terms(monkeypatch):
    """The dual of a binary map is its row terms transposed, and builds no
    form: over `_random_p1_presentation` draws, h0_direct and the dual's
    strata read no map's entries, and the dual's strata are those of the
    dual built entry by entry; read afterwards, its entries are the
    transposed entries."""
    rng = SplitMix64(23)
    draws = [_random_p1_presentation(rng)[0] for _ in range(40)]
    reference = [
        GradedMap(
            2,
            tuple(-t for t in pres.target_twists),
            tuple(-s for s in pres.source_twists),
            [list(col) for col in zip(*pres.entries)],
        )
        for pres in draws
    ]
    read = []
    entries = GradedMap.entries
    monkeypatch.setattr(GradedMap, "entries", property(lambda f: read.append(f) or entries.fget(f)))
    duals = []
    for pres, ref in zip(draws, reference):
        dual = pres.dual()
        lo = -max(pres.target_twists) - 2
        hi = -min(pres.source_twists) + 2
        for m in range(lo, hi + 1):
            assert dual.stratum_rows(m) == ref.stratum_rows(m)
            h0_direct(pres, m)
        duals.append(dual)
    assert read == []
    monkeypatch.undo()
    assert duals == reference
    assert [d.dual() for d in duals] == draws


def test_dual_of_theta_matches_contraction():
    # entrywise transpose against the one-step contraction for d = 2
    from veronese.bundles import delta_matrix

    ctx = VeroneseContext(1, 2)
    assert theta_matrix(ctx).dual() == delta_matrix(ctx, 1)


# -- pullback ----------------------------------------------------------------


def test_pullback_identity_parametrization():
    ctx = VeroneseContext(1, 2)
    th = theta_matrix(ctx)
    pulled = th.pullback(standard_line(1))
    assert pulled.entries == th.entries
    assert pulled.source_twists == th.source_twists


def test_pullback_theta_along_line():
    th = theta_matrix(VeroneseContext(2, 2))
    pulled = th.pullback(standard_line(2))
    # row Z0*Z2 (index in graded-lex order), column 2 should become s
    idx = monomial_index(3, 2)[(1, 0, 1)]
    assert pulled.entries[idx][2] == _var(0)
    assert pulled.entries[idx][0].is_zero()
    # row Z2^2 dies entirely on this line
    idx = monomial_index(3, 2)[(0, 0, 2)]
    assert all(e.is_zero() for e in pulled.entries[idx])


def test_pullback_base_point_rejected():
    s2 = HomPoly.monomial(2, (2, 0))
    st = HomPoly.monomial(2, (1, 1))
    with pytest.raises(BasePointError, match="base point"):
        CurveParam(2, (s2, st))


def test_high_degree_base_point_refused_without_exact_elimination(monkeypatch):
    """Three random forms of degree 64 times s + 2t: the Sylvester stratum
    at twist 129 has in its left kernel the evaluation at (2 : -1), with
    entries up to 2^129, far past the lift bound of one prime.  The CRT
    over the table certifies its deficient rank, so the curve is refused
    with no exact elimination."""
    calls = []
    echelon = linalg._echelon

    def spy(m, cols):
        calls.append(cols)
        return echelon(m, cols)

    monkeypatch.setattr(linalg, "_echelon", spy)
    rng = SplitMix64(17)
    factor = HomPoly(2, 1, {(1, 0): 1, (0, 1): 2})
    e = 64
    forms = [
        HomPoly(2, e, {(e - k, k): rng.next_int(-9, 9) for k in range(e + 1)}) for _ in range(3)
    ]
    with pytest.raises(BasePointError, match="^parametrization has base point$"):
        CurveParam(e + 1, tuple(factor * f for f in forms))
    assert calls == []


def test_pullback_commutes_with_compose():
    rng = SplitMix64(3)
    for _ in range(25):
        n = rng.next_int(1, 2)
        nv = n + 1
        inner = _random_map(rng, nv, 2, 1)
        tgt = [max(inner.target_twists) + rng.next_int(0, 1) for _ in range(2)]
        rows = [
            [_random_poly(rng, nv, t - s) for s in inner.target_twists] for t in tgt
        ]
        outer = GradedMap(nv, inner.target_twists, tgt, rows)
        curve = rnc(n, rng.next_int(0, 3)) if n == 1 else random_line(n, rng.next_u64())
        lhs = outer.compose(inner).pullback(curve)
        rhs = outer.pullback(curve).compose(inner.pullback(curve))
        assert lhs == rhs


def test_pullback_scales_twists():
    th = theta_matrix(VeroneseContext(2, 2))
    pulled = th.pullback(rnc(2, 0))
    assert pulled.source_twists == (-2, -2, -2)
    assert pulled.target_twists == (0,) * 6


# -- stratum -----------------------------------------------------------------


def test_stratum_multiplication_by_z0():
    f = GradedMap(2, [0], [1], [[_var(0)]])
    s = f.stratum(0)
    assert s == QMatrix([[1], [0]])


def test_stratum_identity_map():
    ident = GradedMap.identity(3, (0, 1))
    for m in (0, 1, 2):
        s = ident.stratum(m)
        assert s == QMatrix.identity(s.rows)


def test_stratum_theta_injective_on_sections():
    ctx = VeroneseContext(1, 2)
    s = theta_matrix(ctx).stratum(1)
    assert s.rank() == 2


def test_stratum_functoriality_random():
    rng = SplitMix64(4)
    for _ in range(50):
        nv = rng.next_int(2, 3)
        inner = _random_map(rng, nv, 2, 1)
        tgt = [max(inner.target_twists) + rng.next_int(0, 2) for _ in range(2)]
        rows = [
            [_random_poly(rng, nv, t - s) for s in inner.target_twists] for t in tgt
        ]
        outer = GradedMap(nv, inner.target_twists, tgt, rows)
        m = rng.next_int(-1, 2)
        assert outer.compose(inner).stratum(m) == outer.stratum(m) * inner.stratum(m)


def _product_stratum_rows(f: GradedMap, m: int) -> list[list]:
    """Stratum of f at twist m built column by column from HomPoly products:
    column (j, mono) holds entry(i, j) * Z^mono read off the target monomials."""
    nv = f.num_vars
    cols = []
    for j, s in enumerate(f.source_twists):
        for mono in monomials(nv, m + s):
            col = []
            for i, t in enumerate(f.target_twists):
                entry = f.entries[i][j]
                image = None if entry.is_zero() else entry * HomPoly.monomial(nv, mono)
                col += [0 if image is None else image.coeff(g) for g in monomials(nv, m + t)]
            cols.append(col)
    n_rows = sum(len(monomials(nv, m + t)) for t in f.target_twists)
    return [[col[r] for col in cols] for r in range(n_rows)]


def test_binary_stratum_rows_match_products():
    """Strata against products of forms, with negative twists, zero entries,
    Fraction coefficients and empty blocks: the Toeplitz fill of binary maps
    and the monomial-index fill of maps in three variables."""
    rng = SplitMix64(23)
    for nv in (2, 3):
        kinds = set()
        for _ in range(120):
            q, p = rng.next_int(1, 3), rng.next_int(1, 4)
            src = [rng.next_int(-4, 1) for _ in range(q)]
            tgt = [max(src) + rng.next_int(0, 3) for _ in range(p)]
            rows = []
            for t in tgt:
                row = []
                for s in src:
                    terms = {}
                    if rng.next_below(4):
                        for mono in monomials(nv, t - s):
                            c = rng.next_int(-3, 3)
                            if c and rng.next_below(3) == 0:
                                c = Fraction(c, rng.next_int(2, 5))
                            if c:
                                terms[mono] = c
                    row.append(HomPoly(nv, t - s, terms))
                rows.append(row)
            f = GradedMap(nv, src, tgt, rows)
            m = rng.next_int(-max(tgt) - 2, 2 - min(src))
            got, n_cols = f.stratum_rows(m)
            want = _product_stratum_rows(f, m)
            assert n_cols == sum(len(monomials(nv, m + s)) for s in src)
            assert got == want
            assert [[type(x) for x in row] for row in got] == [
                [type(x) for x in row] for row in want
            ]
            if any(e.is_zero() for row in rows for e in row):
                kinds.add("zero entry")
            if min(src) < 0:
                kinds.add("negative twist")
            if any(type(x) is Fraction for row in got for x in row):
                kinds.add("fraction")
            if any(m + s < 0 for s in src) and n_cols:
                kinds.add("empty block")
            if not got or not n_cols:
                kinds.add("empty stratum")
        assert kinds == {"zero entry", "negative twist", "fraction", "empty block", "empty stratum"}


def test_row_terms_built_once_and_only_for_binary_maps():
    """A binary map built from entries flattens them into row terms once and
    returns the same lists on every call; a map in three or more variables
    has no row terms and says that they need binary forms."""
    euler = euler_presentation(1)
    terms = euler.row_terms()
    assert terms == [[(0, 0, 1)], [(0, 1, 1)]]
    assert euler.row_terms() is terms
    for pres in (normal_presentation(VeroneseContext(3, 3)), euler_presentation(2)):
        with pytest.raises(ValueError, match="row terms need binary forms"):
            pres.row_terms()


def _contraction_stratum(f: GradedMap, m: int) -> QMatrix:
    """The adjoint of f's degree-m stratum under the differentiation pairing:
    entry (i, j) acts as the differential operator entry(i, j)(d/dZ)."""
    nv = f.num_vars
    p, q = f.shape
    rows_out = []
    for j in range(q):
        deg_src = m + f.source_twists[j]
        if deg_src < 0:
            continue
        for tmono in monomials(nv, deg_src):
            row = []
            for i in range(p):
                deg_tgt = m + f.target_twists[i]
                if deg_tgt < 0:
                    continue
                entry = f.entries[i][j]
                for smono in monomials(nv, deg_tgt):
                    # coefficient of applying entry(d/dZ) to Z^smono at Z^tmono
                    acc = Fraction(0)
                    for emono, c in entry.terms.items():
                        if all(s - e == t for s, e, t in zip(smono, emono, tmono)):
                            scale = 1
                            for s_e, e_e in zip(smono, emono):
                                for k in range(e_e):
                                    scale *= s_e - k
                            acc += c * scale
                    row.append(acc)
            rows_out.append(row)
    return QMatrix(rows_out) if rows_out else QMatrix.zero(0, 0)


def test_stratum_dual_rank_pairing():
    # the differentiation pairing is perfect, so the operator-transpose of a
    # stratum has the same rank; built independently from the entries
    rng = SplitMix64(5)
    maps = [theta_matrix(VeroneseContext(2, 2)), theta_matrix(VeroneseContext(1, 3))]
    for _ in range(10):
        maps.append(_random_map(rng, 2, 2, 1))
    for f in maps:
        for m in range(0, 3):
            direct = f.stratum(m + max(0, -min(f.source_twists)))
            mm = m + max(0, -min(f.source_twists))
            adj = _contraction_stratum(f, mm)
            if direct.rows and adj.rows:
                assert direct.rank() == adj.rank()


# -- serialization ---------------------------------------------------------------


def test_graded_map_json_round_trip():
    rng = SplitMix64(6)
    for _ in range(20):
        f = _random_map(rng, rng.next_int(2, 3), 2, 2)
        assert GradedMap.from_json(f.to_json()) == f


_GOOD_MAP = {"numVars": 2, "sourceTwists": [0], "targetTwists": [1], "entries": [["Z0"]]}


@pytest.mark.parametrize(
    "blob",
    [
        {},
        {"numVars": 2},
        [1],
        {**_GOOD_MAP, "entries": [[5]]},
        {**_GOOD_MAP, "entries": None},
        {**_GOOD_MAP, "numVars": True},
        {**_GOOD_MAP, "sourceTwists": ["0"]},
        {**_GOOD_MAP, "entries": [["Z0"], ["Z1"]]},
        {**_GOOD_MAP, "extra": 1},
    ],
)
def test_graded_map_from_json_malformed_raises_value_error(blob):
    with pytest.raises(ValueError):
        GradedMap.from_json(blob)


def test_graded_map_dumps_round_trip():
    f = theta_matrix(VeroneseContext(2, 3))
    assert GradedMap.from_json(json.loads(f.dumps())) == f


def test_curve_param_json_round_trip():
    for curve in (standard_line(3), random_line(2, 5), rnc(2, 7)):
        assert CurveParam.from_json(curve.to_json()) == curve


# -- binary gcd ---------------------------------------------------------------------


@pytest.mark.parametrize("nv_f, nv_g", [(3, 2), (2, 3), (1, 1)])
def test_binary_gcd_refuses_non_binary_forms(nv_f, nv_g):
    with pytest.raises(ValueError, match="^binary_gcd needs forms in two variables$"):
        binary_gcd(HomPoly.variable(nv_f, 0), HomPoly.variable(nv_g, 0))


def test_binary_gcd_of_two_zero_forms_is_zero():
    g = binary_gcd(_zero(deg=3), _zero(deg=1))
    assert g.is_zero() and (g.num_vars, g.degree) == (2, 0)


def test_binary_gcd_of_two_nonzero_constants_is_one():
    g = binary_gcd(HomPoly.constant(2, 3), HomPoly.constant(2, Fraction(-5, 2)))
    assert (g.num_vars, g.degree, g.terms) == (2, 0, {(0, 0): 1})


def test_binary_gcd_shared_factor():
    s2 = HomPoly.monomial(2, (2, 0))
    st = HomPoly.monomial(2, (1, 1))
    g = binary_gcd(s2, st)
    assert g == HomPoly.variable(2, 0)


def test_binary_gcd_coprime():
    s = HomPoly.variable(2, 0)
    t = HomPoly.variable(2, 1)
    assert binary_gcd(s, t).degree == 0


def test_binary_gcd_nontrivial():
    s = HomPoly.variable(2, 0)
    t = HomPoly.variable(2, 1)
    f = (s + t) * (s - t) * s
    g = (s + t) * t
    assert binary_gcd(f, g) == s + t


def _reference_binary_gcd(f: HomPoly, g: HomPoly) -> HomPoly:
    """The gcd by Euclid's algorithm: split off the powers of s and t, take
    the monic gcd of the dehomogenized parts over Fractions, homogenize.
    Kept as the oracle for the Sylvester route of `binary_gcd`."""
    if f.is_zero() and g.is_zero():
        return HomPoly.zero(2, 0)
    if f.is_zero() or g.is_zero():
        h = g if f.is_zero() else f
        return h * Fraction(1, h.sorted_terms()[0][1])

    def split(h):  # h = s^vs t^vt u(s, 1), u by ascending s-power
        vs = min(a for a, _ in h.terms)
        vt = min(b for _, b in h.terms)
        u = [0] * (h.degree - vs - vt + 1)
        for (a, _), c in h.terms.items():
            u[a - vs] = Fraction(c)
        return vs, vt, u

    def trim(u):
        while u and not u[-1]:
            u.pop()
        return u

    vs1, vt1, u = split(f)
    vs2, vt2, v = split(g)
    while v:
        while len(u) >= len(v):
            q, shift = u[-1] / v[-1], len(u) - len(v)
            for i, c in enumerate(v):
                u[i + shift] -= q * c
            trim(u)
        u, v = v, u
    k, vs, vt = len(u) - 1, min(vs1, vs2), min(vt1, vt2)
    return HomPoly(2, k + vs + vt, {(a + vs, k - a + vt): c / u[-1] for a, c in enumerate(u)})


def _random_binary_form(rng, degree, size):
    """A binary form with some coefficients zero, some Fractions, and the
    others up to `size` in absolute value."""
    terms = {}
    for b in range(degree + 1):
        kind = rng.next_below(4)
        c = 0 if kind == 0 else rng.next_int(-size, size)
        terms[degree - b, b] = Fraction(c, rng.next_int(1, 9)) if kind == 1 else c
    return HomPoly(2, degree, terms)


def test_binary_gcd_matches_euclid_reference():
    """600 seeded pairs, degrees 0-9: a planted common factor of degree 0-3
    (a power of s or of t, or a random form) times random cofactors, with
    small or 6-digit coefficients, Fractions, and zero and constant forms."""
    rng = SplitMix64(1517)
    s, t = _var(0), _var(1)
    for case in range(600):
        k = rng.next_int(0, 3)
        planted = rng.next_below(4)
        if planted == 0:
            h = s.power(k)
        elif planted == 1:
            h = t.power(k)
        else:
            h = _random_binary_form(rng, k, 3)
            if h.is_zero():
                h = (s + t).power(k)
        size = 10**6 if case % 5 == 0 else 5
        f, g = (h * _random_binary_form(rng, rng.next_int(0, 9 - k), size) for _ in range(2))
        if case % 50 == 0:
            f = _zero(deg=f.degree)
        if case % 75 == 1:
            g = HomPoly.constant(2, rng.next_int(1, 5))
        want, got = _reference_binary_gcd(f, g), binary_gcd(f, g)
        assert (got.degree, got) == (want.degree, want), (f, g)
        assert {m: type(c) for m, c in got.terms.items()} == {
            m: type(c) for m, c in want.terms.items()
        }, (f, g)
