"""Pullbacks to P^1: the row terms a pullback is built as, the entries it
builds from them on first read, and the splitting types read off them."""

import gc
from fractions import Fraction

from veronese import linalg, p1split
from veronese.bundles import (
    VeroneseContext,
    delta_matrix,
    euler_presentation,
    normal_presentation,
)
from veronese.curves import random_line, rnc, standard_line
from veronese.gradedmap import BasePointError, CurveParam, GradedMap
from veronese.p1split import NotInjectiveError, NotLocallyFreeError, splitting_type
from veronese.poly import HomPoly, monomials
from veronese.prng import SplitMix64


def _reference_pullback(pres: GradedMap, curve: CurveParam) -> GradedMap:
    """The pullback as `HomPoly.substitute` of each entry, built through
    the checked constructor: the oracle for the row-term pullback."""
    e = curve.degree
    rows = [[f.substitute(curve.forms) for f in row] for row in pres.entries]
    return GradedMap(
        2,
        [e * s for s in pres.source_twists],
        [e * t for t in pres.target_twists],
        rows,
    )


def _random_curve(rng, n: int, e: int) -> CurveParam:
    """A seeded curve of degree e in P^n with integer forms; draws with a
    base point are discarded."""
    while True:
        forms = tuple(
            HomPoly(2, e, {(e - k, k): rng.next_int(-3, 3) for k in range(e + 1)})
            for _ in range(n + 1)
        )
        try:
            return CurveParam(e, forms)
        except BasePointError:
            continue


def _random_form(rng, nv: int, deg: int) -> HomPoly:
    terms = {}
    for mono in monomials(nv, deg):
        c = rng.next_int(-2, 2)
        if c:
            terms[mono] = c
    return HomPoly(nv, deg, terms)


def _random_map(rng, nv: int) -> GradedMap:
    """A random map of forms in nv variables; its pullbacks are often not
    injective or have torsion."""
    q = rng.next_int(1, 2)
    p = q + rng.next_int(0, 2)
    src = sorted(rng.next_int(-1, 0) for _ in range(q))
    tgt = sorted(max(src) + rng.next_int(0, 2) for _ in range(p))
    rows = [
        [
            _random_form(rng, nv, t - s) if rng.next_below(4) else HomPoly.zero(nv, t - s)
            for s in src
        ]
        for t in tgt
    ]
    return GradedMap(nv, src, tgt, rows)


def _map_with_kernel(rng) -> GradedMap:
    """A map of P^2 whose second column is a linear form times its first:
    it has rank at most 1 at every point, so it is not injective."""
    tgt = [1, 1, 2]
    lin = _random_form(rng, 3, 1)
    col = [_random_form(rng, 3, t) for t in tgt]
    return GradedMap(3, [0, -1], tgt, [[f, f * lin] for f in col])


def _grid():
    """(presentation, curve) pairs: normal presentations along lines, RNCs
    and random curves, delta matrices (entries with several terms), Euler
    presentations, and random P^2 maps, some with a kernel."""
    rng = SplitMix64(1313)
    for n, d in ((1, 3), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2)):
        pres = normal_presentation(VeroneseContext(n, d))
        yield pres, standard_line(n)
        yield pres, random_line(n, rng.next_u64())
        yield pres, rnc(n, rng.next_int(0, 9))
        yield pres, _random_curve(rng, n, rng.next_int(1, n + 2))
    for n, d in ((2, 2), (2, 3), (3, 3)):
        ctx = VeroneseContext(n, d)
        for i in range(1, d + 1):
            yield delta_matrix(ctx, i), random_line(n, rng.next_u64())
    # Fraction coefficients, in the presentation or in the curve
    pres = normal_presentation(VeroneseContext(2, 3))
    halved = GradedMap(
        3,
        pres.source_twists,
        pres.target_twists,
        [[f * Fraction(1, 2) for f in row] for row in pres.entries],
    )
    third = Fraction(1, 3)
    curve = CurveParam(
        2,
        (
            HomPoly(2, 2, {(2, 0): 3, (0, 2): third}),
            HomPoly(2, 2, {(1, 1): Fraction(3, 2)}),
            HomPoly(2, 2, {(2, 0): third, (1, 1): 1, (0, 2): -2}),
        ),
    )
    yield halved, random_line(2, rng.next_u64())
    yield halved, curve
    yield pres, curve
    for n in (1, 2, 3, 4):
        euler = euler_presentation(n)
        yield euler, rnc(n, rng.next_int(0, 9))
        yield euler, _random_curve(rng, n, rng.next_int(1, n + 3))
    for k in range(70):
        curve = random_line(2, rng.next_u64()) if rng.next_below(2) else rnc(2, rng.next_int(0, 9))
        yield (_map_with_kernel(rng) if k % 7 == 0 else _random_map(rng, 3)), curve


def _reference_injective(pres: GradedMap) -> bool:
    """The point test on the entries: full column rank at one of the D+1
    points (1, k), each entry evaluated by `HomPoly.evaluate`."""
    p, q = pres.shape
    top = sorted(pres.target_twists, reverse=True)[:q]
    bound = sum(top) - sum(pres.source_twists)
    if p < q or bound < 0:
        return False
    return any(
        linalg.rank([[e.evaluate((1, k)) for e in row] for row in pres.entries], q) == q
        for k in range(bound + 1)
    )


def _injective(pres: GradedMap) -> bool:
    try:
        p1split._assert_injective(pres)
    except NotInjectiveError:
        return False
    return True


def _outcome(pres: GradedMap):
    try:
        return splitting_type(pres)
    except (NotInjectiveError, NotLocallyFreeError) as exc:
        return type(exc), str(exc)


def test_pullback_entries_match_reference():
    """The entries built from the row terms are the reference forms, and a
    zero entry has the degree the reference gives it (HomPoly equality
    ignores the degree of a zero form)."""
    for pres, curve in _grid():
        pulled = pres.pullback(curve)
        want = _reference_pullback(pres, curve)
        assert (pulled.source_twists, pulled.target_twists) == (
            want.source_twists,
            want.target_twists,
        )
        assert pulled.entries == want.entries
        assert [[f.degree for f in row] for row in pulled.entries] == [
            [f.degree for f in row] for row in want.entries
        ]
        assert pulled == want


def test_pullback_keeps_no_reference_to_its_source():
    """A pullback holds its twists and row terms only: no slot refers to the
    source map, directly or through a tuple, and its entries are built
    without it after the source is gone."""
    pres = normal_presentation(VeroneseContext(2, 3))
    curve = random_line(2, 2024)
    want = _reference_pullback(pres, curve)
    pulled = pres.pullback(curve)
    held = gc.get_referents(pulled)
    held += [x for r in held if type(r) is tuple for x in gc.get_referents(r)]
    assert not any(x is pres for x in held)
    del pres
    assert pulled.entries == want.entries
    assert [[f.degree for f in row] for row in pulled.entries] == [
        [f.degree for f in row] for row in want.entries
    ]


def test_pullback_zero_entry_takes_its_degree_from_the_twists():
    """A zero entry built with a degree other than t - s pulls back to a
    zero entry of degree e * (t - s), and one with t < s to degree 0."""
    z = [HomPoly.variable(3, i) for i in range(3)]
    m = GradedMap(
        3,
        [0, 0, 3],
        [2, 2],
        [
            [HomPoly.zero(3, 5), z[0] * z[1], HomPoly.zero(3, 4)],
            [z[2] * z[2], HomPoly.zero(3, 0), HomPoly.zero(3, 0)],
        ],
    )
    curve = rnc(2, 0)
    pulled = m.pullback(curve)
    assert [[f.degree for f in row] for row in pulled.entries] == [[4, 4, 0], [4, 4, 0]]
    assert pulled.entry(0, 0).is_zero() and pulled.entry(1, 1).is_zero()
    assert pulled.entry(0, 1) == (z[0] * z[1]).substitute(curve.forms)


def test_splitting_type_same_on_row_terms_and_entries():
    """splitting_type reads a pullback's row terms as they are; the same map
    rebuilt through the checked constructor is flattened from its entries.
    Both give the same type, or the same exception type and message, and
    the grid reaches all three kinds of outcome."""
    kinds = set()
    for pres, curve in _grid():
        got = _outcome(pres.pullback(curve))
        want = _reference_pullback(pres, curve)
        assert got == _outcome(GradedMap(2, want.source_twists, want.target_twists, want.entries))
        kinds.add(got[0] if isinstance(got, tuple) else "type")
    assert kinds == {"type", NotInjectiveError, NotLocallyFreeError}


def test_point_test_on_row_terms_matches_entries():
    """The point test evaluates row terms; evaluating the reference entries
    at the same points decides injectivity the same way."""
    verdicts = set()
    for pres, curve in _grid():
        want = _reference_injective(_reference_pullback(pres, curve))
        assert _injective(pres.pullback(curve)) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_point_test_reads_no_entries(monkeypatch):
    """A scan with no surjective stratum runs its point test on the row
    terms: the pulled-back map never builds its entries."""
    reads, tested = [], []
    entries = GradedMap.entries
    point_test = p1split._assert_injective

    def reading(self):
        reads.append(self)
        return entries.fget(self)

    def testing(pres):
        tested.append(pres)
        return point_test(pres)

    monkeypatch.setattr(GradedMap, "entries", property(reading))
    monkeypatch.setattr(p1split, "_assert_injective", testing)
    rng = SplitMix64(1414)
    seen = 0
    while seen < 5:
        pulled = _random_map(rng, 3).pullback(random_line(2, rng.next_u64()))
        if pulled.shape[0] <= pulled.shape[1]:
            continue  # square maps have no scan
        _outcome(pulled)
        if any(m is pulled for m in tested):
            assert not any(m is pulled for m in reads)
            seen += 1


def test_pullback_strata_read_no_entries(monkeypatch):
    """Binary strata are written from the row terms: at every twist from
    min(t) - 1 to max(t) + 2 a pullback gives the strata of the reference
    pullback, and it never builds its entries."""
    reads = []
    entries = GradedMap.entries

    def reading(self):
        reads.append(self)
        return entries.fget(self)

    monkeypatch.setattr(GradedMap, "entries", property(reading))
    for pres, curve in _grid():
        pulled = pres.pullback(curve)
        want = _reference_pullback(pres, curve)
        t = pulled.target_twists
        for m in range(min(t) - 1, max(t) + 3):
            assert pulled.stratum_rows(m) == want.stratum_rows(m)
        assert not any(r is pulled for r in reads)


def test_degree_two_normal_bundle_is_sym_square_of_tangent():
    """For d = 2 the second fundamental form Sym^2 T -> N is an isomorphism,
    so along every rational curve the normal type is the symmetric square
    of the tangent type.  Curves of degree e > n have moduli: no frozen
    type covers them, but this oracle does."""
    rng = SplitMix64(2202)
    checked = 0
    for n in (2, 3, 4):
        normal = normal_presentation(VeroneseContext(n, 2))
        euler = euler_presentation(n)
        for e in range(n + 1, 8):
            for _ in range(3):
                curve = _random_curve(rng, n, e)
                tangent = splitting_type(euler.pullback(curve))
                assert splitting_type(normal.pullback(curve)) == tangent.sym_square()
                checked += 1
    assert checked == 36
