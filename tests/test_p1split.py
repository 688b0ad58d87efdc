from math import comb, prod

import pytest

from veronese.bundles import VeroneseContext, normal_presentation
from veronese.curves import random_line, rnc, standard_line
from veronese.gradedmap import BasePointError, CurveParam, GradedMap
from veronese import linalg, p1split
from veronese.linalg import PRIMES, rank as rank_of
from veronese.p1split import (
    NotInjectiveError,
    NotLocallyFreeError,
    SplittingType,
    _assert_injective,
    h0_direct,
    splitting_type,
)
from veronese.poly import HomPoly, monomials
from veronese.prng import SplitMix64


def _s(c=1):
    return HomPoly.variable(2, 0, c)


def _t(c=1):
    return HomPoly.variable(2, 1, c)


# -- splitting_type -------------------------------------------------------------


def test_twisted_cubic_normal_bundle():
    pres = normal_presentation(VeroneseContext(1, 3)).pullback(standard_line(1))
    assert splitting_type(pres).degrees == (5, 5)


def test_veronese_surface_on_line():
    pres = normal_presentation(VeroneseContext(2, 2)).pullback(standard_line(2))
    assert splitting_type(pres).degrees == (4, 3, 2)


def test_free_sheaf_no_relations():
    pres = GradedMap(2, [], [1, 1], [[], []])
    assert splitting_type(pres).degrees == (1, 1)
    _assert_injective(pres)  # no columns: rank 0 is full column rank


def test_line_bundle_from_koszul():
    # O(-1) -> O^2 with column (s, t): cokernel is O(1)
    pres = GradedMap(2, [-1], [0, 0], [[_s()], [_t()]])
    assert splitting_type(pres).degrees == (1,)


def test_not_injective_equal_columns():
    z = HomPoly.zero(2, 1)
    pres = GradedMap(2, [0, 0], [1, 1, 1], [[_s(), _s()], [_t(), _t()], [z, z]])
    with pytest.raises(NotInjectiveError, match="not injective"):
        splitting_type(pres)


def test_not_locally_free_shared_factor():
    s2 = HomPoly.monomial(2, (2, 0))
    st = HomPoly.monomial(2, (1, 1))
    pres = GradedMap(2, [0], [2, 2], [[s2], [st]])
    with pytest.raises(NotLocallyFreeError, match="not locally free"):
        splitting_type(pres)


def test_rejects_ambient_beyond_line():
    pres = GradedMap(3, [0], [1, 1], [[HomPoly.variable(3, 0)], [HomPoly.variable(3, 1)]])
    with pytest.raises(ValueError, match="projective line"):
        splitting_type(pres)


def test_square_invertible_has_zero_cokernel():
    pres = GradedMap(2, [0], [0], [[HomPoly.constant(2, 3)]])
    assert splitting_type(pres).degrees == ()


def test_zero_row_contributes_free_summand():
    pres = GradedMap(2, [-1], [0, 0, 5], [[_s()], [_t()], [HomPoly.zero(2, 6)]])
    assert splitting_type(pres).degrees == (5, 1)


def test_constant_entry_block():
    pres = GradedMap(2, [0, 0], [0, 0, 2], [
        [HomPoly.constant(2, 1), HomPoly.constant(2, 2)],
        [HomPoly.constant(2, 3), HomPoly.constant(2, 4)],
        [HomPoly.zero(2, 2), HomPoly.monomial(2, (1, 1))],
    ])
    assert splitting_type(pres).degrees == (2,)


def test_square_with_torsion_cokernel_rejected():
    # coker of multiplication by s is supported at a point
    pres = GradedMap(2, [0], [1], [[_s()]])
    with pytest.raises(NotLocallyFreeError):
        splitting_type(pres)


def test_injectivity_decided_beyond_degenerate_first_point():
    # the column (t^2, st) vanishes at the first evaluation point (1, 0) but
    # the map is injective; the failure must be classified as torsion in the
    # cokernel, not as non-injectivity
    t2 = HomPoly.monomial(2, (0, 2))
    st_ = HomPoly.monomial(2, (1, 1))
    pres = GradedMap(2, [0], [2, 2], [[t2], [st_]])
    with pytest.raises(NotLocallyFreeError):
        splitting_type(pres)


def test_balanced_rational_normal_curves():
    for d in range(2, 7):
        pres = normal_presentation(VeroneseContext(1, d)).pullback(standard_line(1))
        assert splitting_type(pres).degrees == (d + 2,) * (d - 1)


def _disguised_presentation(rng):
    """A presentation with known cokernel, hidden by automorphisms.

    Builds a block sum of Koszul columns (s, t): O(b-2) -> O(b-1)^2, each
    presenting O(b), plus free summands, then multiplies by random
    upper-triangular automorphisms of source and target (constant nonzero
    diagonal, so the cokernel is unchanged).  Returns (pres, degrees).
    """
    blocks = rng.next_int(1, 3)
    frees = rng.next_int(0, 2)
    truth = []
    src, tgt, cols = [], [], []
    for _ in range(blocks):
        b = rng.next_int(-1, 4)
        truth.append(b)
        src.append(b - 2)
        tgt.extend([b - 1, b - 1])
    for _ in range(frees):
        b = rng.next_int(-1, 4)
        truth.append(b)
        tgt.append(b)
    rows = [[HomPoly.zero(2, max(0, t - s)) for s in src] for t in tgt]
    row_at = 0
    for k in range(blocks):
        rows[row_at][k] = _s()
        rows[row_at + 1][k] = _t()
        row_at += 2
    pres = GradedMap(2, src, tgt, rows)

    def automorphism(twists):
        order = sorted(range(len(twists)), key=lambda i: -twists[i])
        entries = [
            [HomPoly.zero(2, max(0, twists[i] - twists[j])) for j in range(len(twists))]
            for i in range(len(twists))
        ]
        for pos_i, i in enumerate(order):
            entries[i][i] = HomPoly.constant(2, rng.next_int(1, 3))
            for j in order[pos_i + 1 :]:
                deg = twists[i] - twists[j]
                if deg >= 0 and rng.next_below(2):
                    terms = {}
                    for mono in monomials(2, deg):
                        c = rng.next_int(-2, 2)
                        if c:
                            terms[mono] = c
                    entries[i][j] = HomPoly(2, deg, terms)
        return GradedMap(2, twists, twists, entries)

    disguised = automorphism(tgt).compose(pres).compose(automorphism(src))
    return disguised, tuple(sorted(truth, reverse=True))


def test_recovers_known_splitting_through_disguise():
    rng = SplitMix64(314)
    for _ in range(30):
        pres, truth = _disguised_presentation(rng)
        assert splitting_type(pres).degrees == truth


def _random_binary_presentation(rng) -> GradedMap:
    """A random p x q map of binary forms, p > q; often not injective or
    with torsion in its cokernel."""
    q = rng.next_int(1, 2)
    p = q + rng.next_int(1, 2)
    src = sorted(rng.next_int(-2, 0) for _ in range(q))
    tgt = sorted(max(src) + rng.next_int(0, 2) for _ in range(p))
    rows = []
    for i in range(p):
        row = []
        for j in range(q):
            deg = tgt[i] - src[j]
            terms = {}
            for mono in monomials(2, deg):
                c = rng.next_int(-3, 3)
                if c:
                    terms[mono] = c
            row.append(HomPoly(2, deg, terms))
        rows.append(row)
    return GradedMap(2, src, tgt, rows)


def test_generator_count_always_rank():
    rng = SplitMix64(42)
    made = 0
    while made < 25:
        pres = _random_binary_presentation(rng)
        p, q = pres.shape
        tgt, src = pres.target_twists, pres.source_twists
        try:
            st = splitting_type(pres)
        except (NotInjectiveError, NotLocallyFreeError):
            continue
        made += 1
        assert st.rank == p - q
        assert st.degree == sum(tgt) - sum(src)


def _full_scan_splitting_type(pres: GradedMap) -> SplittingType:
    """splitting_type without the degree-sum stop, the image recursion or
    the injectivity certificate: the point test runs first, then the scan
    ranks every whole stratum until rank-many generators are found.  Kept
    as the oracle for all three."""
    _assert_injective(pres)
    p, q = pres.shape
    rank = p - q
    if q == 0:
        return SplittingType(pres.target_twists)
    want = sum(pres.target_twists) - sum(pres.source_twists)
    if rank == 0:
        if want != 0:
            raise NotLocallyFreeError(
                f"cokernel not locally free: torsion length {want}"
            )
        return SplittingType(())
    dual = pres.dual()
    lo = min(pres.target_twists)
    hi = want - (rank - 1) * lo
    degrees: list[int] = []
    k1 = k2 = 0
    for m in range(lo, hi + 1):
        rows, cols = dual.stratum_rows(m)
        k0 = cols - rank_of(rows, cols)
        degrees.extend([m] * (k0 - 2 * k1 + k2))
        if len(degrees) == rank:
            break
        k1, k2 = k0, k1
    if len(degrees) != rank:
        raise NotLocallyFreeError(
            f"cokernel not locally free: kernel module has {len(degrees)} "
            f"generators in the window, expected {rank}"
        )
    st = SplittingType(tuple(degrees))
    if st.degree != want:
        raise NotLocallyFreeError(
            f"cokernel not locally free: degree sum {st.degree} != "
            f"twist difference {want} (torsion length {want - st.degree})"
        )
    return st


def _outcome(fn, pres):
    try:
        return fn(pres)
    except (NotInjectiveError, NotLocallyFreeError) as exc:
        return type(exc), str(exc)


def _probes_below_average(pres: GradedMap) -> bool:
    """Whether the scan probes for a balanced start: a - 1 > min(t), with
    a = floor((sum(t) - sum(s)) / rank)."""
    p, q = pres.shape
    want = sum(pres.target_twists) - sum(pres.source_twists)
    return p > q > 0 and want // (p - q) - 1 > min(pres.target_twists)


def test_degree_sum_stop_matches_full_scan():
    rng = SplitMix64(42)
    kinds = set()
    probed = []  # outcome kinds of the presentations that probe
    for _ in range(100):
        pres = _random_binary_presentation(rng)
        got = _outcome(splitting_type, pres)
        assert got == _outcome(_full_scan_splitting_type, pres)
        kind = got[0] if isinstance(got, tuple) else SplittingType
        kinds.add(kind)
        if _probes_below_average(pres):
            probed.append(kind)
    assert kinds == {SplittingType, NotInjectiveError, NotLocallyFreeError}
    # the non-injective outcome on that path is pinned by
    # test_surjective_below_max_source_twist_is_no_certificate
    assert len(probed) > 0 and set(probed) == {SplittingType, NotLocallyFreeError}
    for pres, _ in (_disguised_presentation(SplitMix64(k)) for k in range(20)):
        assert splitting_type(pres) == _full_scan_splitting_type(pres)


def _ranked_twists(monkeypatch, pres: GradedMap) -> tuple[SplittingType, list[int]]:
    """The splitting type and the twist of every rank call the scan makes.
    A rank call is mapped to its twist by its row count h0(F1^v(m)), which
    strictly grows over the scan window."""
    lo = min(pres.target_twists)
    hi = sum(pres.target_twists) - sum(pres.source_twists)
    twist_of = {sum(max(0, m - s + 1) for s in pres.source_twists): m for m in range(lo, hi + 1)}
    assert len(twist_of) == hi - lo + 1
    ranked = []
    pivot_columns = linalg.pivot_columns

    def counting_ranks(rows, cols):
        ranked.append(twist_of[len(rows)])
        return pivot_columns(rows, cols)

    monkeypatch.setattr(linalg, "pivot_columns", counting_ranks)
    st = splitting_type(pres)
    monkeypatch.undo()
    return st, ranked


@pytest.mark.parametrize("n, d, maker", [(2, 6, random_line), (4, 2, rnc)])
def test_degree_sum_stop_skips_top_stratum(monkeypatch, n, d, maker):
    """For a locally free cokernel the scan ranks no stratum at twist
    max(b); the full scan builds it."""
    pres = normal_presentation(VeroneseContext(n, d)).pullback(maker(n, 9))
    st, ranked = _ranked_twists(monkeypatch, pres)
    assert ranked and max(ranked) < max(st.degrees)

    built = []
    stratum_rows = GradedMap.stratum_rows

    def counting_strata(self, m):
        built.append(m)
        return stratum_rows(self, m)

    monkeypatch.setattr(GradedMap, "stratum_rows", counting_strata)
    assert _full_scan_splitting_type(pres) == st
    assert max(built) == max(st.degrees)


def _count_point_tests(monkeypatch) -> list:
    calls = []
    point_test = p1split._assert_injective

    def counting(pres):
        calls.append(pres)
        return point_test(pres)

    monkeypatch.setattr(p1split, "_assert_injective", counting)
    return calls


@pytest.mark.parametrize("n, d, maker", [(2, 6, random_line), (4, 2, rnc)])
def test_surjective_stratum_skips_point_test(monkeypatch, n, d, maker):
    """A stratum at twist m >= max(s) whose image is all of H0(F1^v(m))
    proves injectivity, so the point test never runs."""
    pres = normal_presentation(VeroneseContext(n, d)).pullback(maker(n, 9))
    calls = _count_point_tests(monkeypatch)
    splitting_type(pres)
    assert calls == []


def test_square_presentation_runs_point_test_once(monkeypatch):
    calls = _count_point_tests(monkeypatch)
    with pytest.raises(NotLocallyFreeError, match="torsion length 1"):
        splitting_type(GradedMap(2, [0], [1], [[_s()]]))
    assert len(calls) == 1
    calls.clear()
    one = HomPoly.constant(2, 1)
    assert splitting_type(GradedMap(2, [0], [0], [[one]])) == SplittingType(())
    assert len(calls) == 1


def test_surjective_below_max_source_twist_is_no_certificate():
    """O(0) + O(5) -> O(1)^2 + O(6) with rows (s, 0), (t, 0), (0, 0): the
    stratum at m = 1 < max(s) = 5 is surjective, yet O(5) maps to zero.
    Without the m >= max(s) condition the scan would skip the point test
    and report torsion instead."""
    z1, z6 = HomPoly.zero(2, 1), HomPoly.zero(2, 6)
    pres = GradedMap(2, [0, 5], [1, 1, 6], [[_s(), z1], [_t(), z1], [z6, z1]])
    assert _probes_below_average(pres)
    with pytest.raises(NotInjectiveError, match="not injective"):
        splitting_type(pres)
    assert _outcome(splitting_type, pres) == _outcome(_full_scan_splitting_type, pres)


def _curve_from_rows(e: int, rows: list[list[int]]) -> CurveParam:
    """The degree-e curve whose form i has coefficient rows[i][k] at s^(e-k) t^k."""
    return CurveParam(e, tuple(HomPoly(2, e, {(e - k, k): c for k, c in enumerate(row)}) for row in rows))


def _general_curve(e: int):
    """A maker of seeded degree-e curves: forms with coefficients drawn
    from [-9, 9], redrawn until they have no base point."""

    def make(n: int, seed: int) -> CurveParam:
        rng = SplitMix64(seed)
        while True:
            try:
                return _curve_from_rows(e, [[rng.next_int(-9, 9) for _ in range(e + 1)] for _ in range(n + 1)])
            except BasePointError:
                continue

    return make


def _monomial_curve(e: int, *powers: int):
    """A maker of the curve (s^(e-k) t^k for k in powers); it takes no seed."""
    forms = tuple(HomPoly.monomial(2, (e - k, k)) for k in powers)
    return lambda n, seed: CurveParam(e, forms)


def _plane_curve_32() -> CurveParam:
    """The degree-32 plane curve of the CI step "Large restrictions"."""
    return _curve_from_rows(32, [[((i + 2) * k * k + i + 1) % 19 - 9 for k in range(33)] for i in range(3)])


@pytest.mark.parametrize(
    "n, d, maker",
    [
        (5, 4, random_line),
        (8, 3, random_line),
        (4, 6, random_line),
        (4, 4, rnc),
        # general curves with e > n, whose types are (nearly) balanced
        *(
            pytest.param(n, d, _general_curve(e), id=f"{n}-{d}-general{e}")
            for n, d, e in [(2, 3, 6), (2, 3, 8), (3, 3, 5), (2, 4, 6), (4, 2, 6), (3, 2, 8)]
        ),
        # special curves, whose types spread over several degrees
        *(
            pytest.param(n, d, _monomial_curve(e, *powers), id=f"{n}-{d}-monomial{e}:{','.join(map(str, powers))}")
            for n, d, e, powers in [
                (2, 3, 8, (0, 4, 8)),
                (2, 4, 8, (0, 4, 8)),
                (2, 3, 9, (0, 3, 9)),
                (3, 2, 12, (0, 4, 8, 12)),
            ]
        ),
    ],
)
def test_image_scan_matches_full_scan_large(n, d, maker):
    pres = normal_presentation(VeroneseContext(n, d)).pullback(maker(n, 7))
    assert splitting_type(pres) == _full_scan_splitting_type(pres)


def test_balanced_start_ranks_one_stratum_on_plane_curve(monkeypatch):
    """The degree-32 plane curve at d = 2 has type 96^3: the probe at
    a - 1 = 95 has K = 0 and a surjective stratum, and the degree-sum stop
    then fires at 96, so the scan ranks that one stratum and nothing else."""
    pres = normal_presentation(VeroneseContext(2, 2)).pullback(_plane_curve_32())
    st, ranked = _ranked_twists(monkeypatch, pres)
    assert st.degrees == (96, 96, 96)
    assert ranked == [95]


def test_balanced_start_ranks_down_to_second_probe(monkeypatch):
    """A general type spanning three degrees a + 1, a, a - 1 has generators
    at a - 1 but none at a - 2: both probes run, the scan starts at a - 2,
    reuses both, and ranks nothing below a - 2 and no twist twice."""
    pres = normal_presentation(VeroneseContext(4, 2)).pullback(_general_curve(6)(4, 7))
    st, ranked = _ranked_twists(monkeypatch, pres)
    a = st.degree // st.rank
    assert (max(st.degrees), min(st.degrees)) == (a + 1, a - 1) == (16, 14)
    assert ranked[:2] == [a - 1, a - 2]
    assert min(ranked) == a - 2 > min(pres.target_twists)
    assert len(ranked) == len(set(ranked))


def test_balanced_start_reuses_probes_with_generators(monkeypatch):
    """(s^8, s^4 t^4, t^8) at d = 4 has generators at both probes, so the
    scan starts at min(t) and takes a - 1 and a - 2 from the probes: every
    twist up to the last is ranked exactly once."""
    pres = normal_presentation(VeroneseContext(2, 4)).pullback(_monomial_curve(8, 0, 4, 8)(2, 0))
    st, ranked = _ranked_twists(monkeypatch, pres)
    a = st.degree // st.rank
    assert min(st.degrees) < a - 2
    assert ranked[:2] == [a - 1, a - 2]
    assert sorted(ranked) == list(range(min(pres.target_twists), max(ranked) + 1))


def _reparametrized(curve: CurveParam, rng) -> CurveParam:
    """The same curve composed with a random integer automorphism
    (s, t) -> (as + bt, cs + dt) of the line."""
    while True:
        a, b, c, d = (rng.next_int(-5, 5) for _ in range(4))
        if a * d - b * c:
            break
    sub = (HomPoly(2, 1, {(1, 0): a, (0, 1): b}), HomPoly(2, 1, {(1, 0): c, (0, 1): d}))
    return CurveParam(curve.degree, tuple(f.substitute(sub) for f in curve.forms))


def _moved(curve: CurveParam, rng) -> CurveParam:
    """The curve moved by a random full-rank integer matrix A acting on the
    coordinates of P^n: the forms of A.C are A times the forms of C."""
    k = len(curve.forms)
    while True:
        a = [[rng.next_int(-3, 3) for _ in range(k)] for _ in range(k)]
        if rank_of(a, k) == k:
            break
    zero = HomPoly.zero(2, curve.degree)
    return CurveParam(
        curve.degree,
        tuple(sum((c * f for c, f in zip(row, curve.forms)), zero) for row in a),
    )


@pytest.mark.parametrize(
    "n, d, maker", [(2, 3, random_line), (2, 4, random_line), (3, 2, random_line), (2, 2, rnc), (3, 2, rnc)]
)
def test_splitting_type_metamorphic(n, d, maker):
    """The splitting type along a curve is unchanged when every form is
    multiplied by the product of the table's primes (the same map to P^n;
    every stratum is then 0 mod every prime of the table, so every rank
    takes the exact fallback), when the line is reparametrized, and when
    the curve is moved by an element of GL_{n+1}: lines and rational
    normal curves are each one orbit, and the normal bundle is
    homogeneous."""
    pres = normal_presentation(VeroneseContext(n, d))
    rng = SplitMix64(1000 * n + d)
    table = prod(PRIMES)
    for seed in (1, 2):
        curve = maker(n, seed)
        want = splitting_type(pres.pullback(curve))
        scaled = pres.pullback(CurveParam(curve.degree, tuple(f * table for f in curve.forms)))
        rows, _ = scaled.dual().stratum_rows(max(want.degrees))
        assert any(any(row) for row in rows)
        assert all(x % table == 0 for row in rows for x in row)
        assert splitting_type(scaled) == want
        assert splitting_type(pres.pullback(_reparametrized(curve, rng))) == want
        assert splitting_type(pres.pullback(_moved(curve, rng))) == want


@pytest.mark.parametrize("n, d, seed", [(4, 4, 7), (4, 4, 1), (5, 3, 1), (5, 4, 1)])
def test_random_rnc_scans_make_no_exact_elimination(monkeypatch, n, d, seed):
    """The seed-7 (4,4) RNC scan and the random RNCs of the CI's large
    restrictions (seed 1 at (4,4), (5,3) and (5,4)) have strata whose left
    kernels need more than one prime; the CRT over the table certifies
    every one, so `_echelon` never runs.  The type is the closed form of
    a rational normal curve at d >= 3."""
    calls = []
    echelon = linalg._echelon

    def spy(m, cols):
        calls.append((len(m), cols))
        return echelon(m, cols)

    monkeypatch.setattr(linalg, "_echelon", spy)
    st = splitting_type(normal_presentation(VeroneseContext(n, d)).pullback(rnc(n, seed)))
    assert calls == []
    top, hi, mid = n * d + 2, n * d - 1, (n - 1) * (n * d - n - 2)
    rest = comb(n + d, d) - n - 1 - hi - mid
    assert list(st.degrees) == [top] * hi + [top - 1] * mid + [top - 2] * rest


# -- h0 profile and direct cohomology --------------------------------------------


def test_h0_profile_single_bundle():
    assert SplittingType((4,)).h0_profile(0, 0) == [5]


def test_h0_profile_mixed():
    assert SplittingType((4, 3, 2)).h0_profile(-3, -3) == [3]


def test_h0_profile_theorem_value():
    # n = 2 balanced restriction: three copies of O(6) at twist 0
    assert SplittingType((6, 6, 6)).h0_profile(0, 0) == [21]


def test_h0_direct_agrees_with_profile():
    cases = [
        normal_presentation(VeroneseContext(1, 3)).pullback(standard_line(1)),
        normal_presentation(VeroneseContext(2, 2)).pullback(random_line(2, 3)),
        normal_presentation(VeroneseContext(2, 2)).pullback(rnc(2, 1)),
    ]
    for pres in cases:
        st = splitting_type(pres)
        top = max(st.degrees)
        window = list(range(-top - 2, top + 3))
        assert st.h0_profile(-top - 2, top + 2) == [h0_direct(pres, m) for m in window]


def _block_sum(a: GradedMap, b: GradedMap) -> GradedMap:
    zero = HomPoly.zero(2, 0)
    rows = [list(row) + [zero] * b.shape[1] for row in a.entries]
    rows += [[zero] * a.shape[1] + list(row) for row in b.entries]
    return GradedMap(
        2, a.source_twists + b.source_twists, a.target_twists + b.target_twists, rows
    )


def test_block_sum_splits_as_union():
    # the (2,4) and (3,3) line restrictions scan from different first degrees
    # (4 and 3), so the sum's kernel generators interleave across the window
    a = normal_presentation(VeroneseContext(2, 4)).pullback(random_line(2, 5))
    b = normal_presentation(VeroneseContext(3, 3)).pullback(random_line(3, 6))
    assert min(a.target_twists) != min(b.target_twists)
    pres = _block_sum(a, b)
    st = splitting_type(pres)
    assert st == SplittingType(splitting_type(a).degrees + splitting_type(b).degrees)
    top = max(st.degrees)
    window = list(range(-top - 2, top + 3))
    assert st.h0_profile(-top - 2, top + 2) == [h0_direct(pres, m) for m in window]


# -- sym_square -------------------------------------------------------------------


def test_sym_square_tangent_p3():
    assert SplittingType((1, 1, 2)).sym_square().degrees == (4, 3, 3, 2, 2, 2)


def test_sym_square_balanced():
    assert SplittingType((3, 3)).sym_square().degrees == (6, 6, 6)


def test_sym_square_trivial():
    assert SplittingType((0,)).sym_square().degrees == (0,)


def test_sym_square_rank_degree():
    rng = SplitMix64(7)
    for _ in range(50):
        r = rng.next_int(1, 5)
        st = SplittingType(tuple(rng.next_int(-3, 5) for _ in range(r)))
        sq = st.sym_square()
        assert sq.rank == r * (r + 1) // 2
        assert sq.degree == (r + 1) * st.degree


def test_json_output_shape():
    st = SplittingType((4, 3, 2))
    assert st.to_json() == {"degrees": [4, 3, 2], "rank": 3, "degree": 9}
