"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success (visible with pytest -s or
in the captured output); stated runtime budgets are asserted alongside the
mathematical content.  No tolerances anywhere: every comparison is on
integers, exact rationals, or exact polynomial matrices.
"""

import json
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

from veronese.bundles import (
    VeroneseContext,
    delta_matrix,
    euler_presentation,
    k_bundle_stats,
    normal_presentation,
    verify_dual_identity,
)
from veronese.chow import gm_check
from veronese.curves import random_line, rnc, standard_line
from veronese.p1split import splitting_type
from veronese.prng import SplitMix64
from veronese.symlin import check_commute, random_ses
from veronese import verify as corpus


def _report(k, name, elapsed):
    print(f"ACCEPTANCE {k} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_rational_normal_curve_splitting():
    t0 = time.monotonic()
    ident = standard_line(1)
    for d in range(2, 9):
        pres = normal_presentation(VeroneseContext(1, d)).pullback(ident)
        assert splitting_type(pres).degrees == (d + 2,) * (d - 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report(1, "rational normal curve splitting", elapsed)


def test_criterion_2_line_restrictions_degree_two():
    t0 = time.monotonic()
    for n in (2, 3, 4, 5):
        ctx = VeroneseContext(n, 2)
        want = tuple([4] + [3] * (n - 1) + [2] * (n * (n - 1) // 2))
        lines = [standard_line(n)] + [random_line(n, s) for s in range(1, 11)]
        for line in lines:
            pres = normal_presentation(ctx).pullback(line)
            assert splitting_type(pres).degrees == want
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(2, "degree-2 line restrictions", elapsed)


def test_criterion_3_rational_normal_curve_restrictions():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        ctx = VeroneseContext(n, 2)
        want = (2 * n + 2,) * (n * (n + 1) // 2)
        for seed in range(5):
            pres = normal_presentation(ctx).pullback(rnc(n, seed))
            assert splitting_type(pres).degrees == want
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _report(3, "degree-2 rational normal curve restrictions", elapsed)


def test_criterion_4_grauert_mulich_and_chern():
    t0 = time.monotonic()
    for n, d in ((2, 3), (2, 4), (3, 3)):
        ctx = VeroneseContext(n, d)
        for seed in range(1, 11):
            pres = normal_presentation(ctx).pullback(random_line(n, seed))
            st = splitting_type(pres)
            rep = gm_check(st, ctx)
            assert rep.spread_ok
            assert st.degree == comb(n + d, d) * d - (n + 1)
            assert st.rank == comb(n + d, d) - n - 1
    elapsed = time.monotonic() - t0
    _report(4, "Grauert-Mulich spread and Chern sums", elapsed)


def test_criterion_5_dual_identity():
    t0 = time.monotonic()
    recorded = {}
    for n in range(1, 5):
        for d in range(2, 5):
            rep = verify_dual_identity(VeroneseContext(n, d))
            assert rep.ok, (n, d, rep.detail)
            assert rep.is_scalar
            assert rep.scale == factorial(d - 1)
            recorded[(n, d)] = rep.scale
    assert len(recorded) == 12
    elapsed = time.monotonic() - t0
    _report(5, f"dual identity, diagonals {sorted(set(recorded.values()))}", elapsed)


def test_criterion_6_symmetrize_dualize_commute():
    t0 = time.monotonic()
    rng = SplitMix64(2024)
    for k in range(100):
        ses = random_ses(rng.next_u64(), max_middle=5)
        assert check_commute(ses, 1 + k % 3)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report(6, "symmetrize/dualize commutation, 100 sequences", elapsed)


def test_criterion_7_k_tower_slopes_and_degrees():
    t0 = time.monotonic()
    for n in range(1, 9):
        for d in range(2, 9):
            ctx = VeroneseContext(n, d)
            stats = [k_bundle_stats(ctx, i) for i in range(1, d + 2)]
            slopes = [s.slope for s in stats]
            assert all(a < b for a, b in zip(slopes, slopes[1:]))
            assert slopes[-1] == Fraction(0)
    for n in (1, 2, 3):
        for d in (2, 3):
            ctx = VeroneseContext(n, d)
            line = standard_line(1) if n == 1 else random_line(n, 11)
            for i in range(1, d + 1):
                pres = delta_matrix(ctx, i).pullback(line).dual()
                st = splitting_type(pres)
                want = k_bundle_stats(ctx, i)
                assert -st.degree == want.degree
                assert st.rank == want.rank
    elapsed = time.monotonic() - t0
    _report(7, "kernel tower slopes and restriction degrees", elapsed)


def test_criterion_8_tangent_restrictions():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        euler = euler_presentation(n)
        on_line = splitting_type(euler.pullback(standard_line(n)))
        assert on_line.degrees == tuple([2] + [1] * (n - 1))
        on_rnc = splitting_type(euler.pullback(rnc(n, 1)))
        assert on_rnc.degrees == (n + 1,) * n
        # symmetric squares reproduce the normal-bundle multisets
        assert on_line.sym_square().degrees == tuple(
            sorted([4] + [3] * (n - 1) + [2] * (n * (n - 1) // 2), reverse=True)
        )
        assert on_rnc.sym_square().degrees == (2 * n + 2,) * (n * (n + 1) // 2)
    elapsed = time.monotonic() - t0
    _report(8, "tangent bundle restrictions and symmetric squares", elapsed)


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    ok, detail = corpus.check_property_suites(50)
    assert ok, detail
    elapsed = time.monotonic() - t0
    _report(9, "randomized property suites, 50 instances each", elapsed)


_RECORDED = json.loads(
    (Path(__file__).parent / "data" / "verify_outputs_v1.json").read_text()
)


def _without_elapsed(report):
    checks = [{k: v for k, v in c.items() if k != "elapsed_s"} for c in report["checks"]]
    return {**report, "checks": checks}


def test_full_corpus_agrees():
    # the CLI-facing corpus runs the same criteria and must agree
    report = corpus.run_corpus("full")
    assert report["passed"], [
        c for c in report["checks"] if c["status"] == "fail"
    ]
    assert "necessary-condition" in report["note"]
    # names, order, statuses, details and note match the recorded reports
    assert _without_elapsed(report) == _RECORDED["full"]
    assert _without_elapsed(corpus.run_corpus("fast")) == _RECORDED["fast"]
