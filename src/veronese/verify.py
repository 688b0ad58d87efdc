"""Verification corpus: every acceptance check behind the `verify` command.

Each check is exact (no tolerances anywhere); a check either recomputes a
closed form, compares polynomial matrices entrywise, or matches a frozen
golden file.  It is a function returning (ok, detail), declared once in
`_CHECKS` with its `fast` arguments (a reduced parameter set for a quick
gate) and its `full` ones (the complete corpus); `corpus(scope)` and the
report follow that table's order.

Slope semistability of the normal bundle for general (n, d) is not decided
by an algorithm here; it is evidenced by the necessary-condition checks
(Grauert-Mulich spread, Chern degree sums, dual identity, slope tables).
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from functools import partial
from importlib import resources
from math import factorial

from . import bundles, chow, curves, p1split, symlin
from .bundles import VeroneseContext
from .gradedmap import BasePointError, CurveParam, GradedMap
from .poly import HomPoly, monomials
from .prng import SplitMix64

SEMISTABILITY_NOTE = (
    "Slope semistability for general (n, d) is covered by necessary-condition "
    "checks (grauert_mulich_chern, dual_identity, k_tower_slopes), not by a "
    "decision procedure."
)


def _line_multiset(n: int) -> tuple[int, ...]:
    return tuple(
        sorted([4] + [3] * (n - 1) + [2] * (n * (n - 1) // 2), reverse=True)
    )


def _restrictions(
    ctx: VeroneseContext, samples: list[CurveParam]
) -> Iterator[p1split.SplittingType]:
    """Splitting types of the normal bundle of ctx along each curve, in order.

    Each type is `bundles.restriction_type`, the one `restrict` reports, so
    these checks test what `restrict` prints; a curve whose forms span S_e
    reads the type of its orbit, computed once per (ctx, e).  Each type is
    computed only when the caller asks for it, so a check that stops early
    does no more work.  `check_restriction_routes` compares this route with
    the direct scan.
    """
    for curve in samples:
        yield bundles.restriction_type(ctx, curve)


# -- individual checks ----------------------------------------------------------


def check_rnc_balanced(ds) -> tuple[bool, str]:
    """n = 1: restriction along the identity splits as (d+2) repeated d-1 times."""
    ident = [curves.standard_line(1)]
    for d in ds:
        (st,) = _restrictions(VeroneseContext(1, d), ident)
        if st.degrees != (d + 2,) * (d - 1):
            return False, f"d={d}: got {st.degrees}"
    return True, f"d in {tuple(ds)}: splitting (d+2)^(d-1), exact"


def check_line_restriction_d2(ns, n_lines: int) -> tuple[bool, str]:
    """d = 2 on lines: degrees 4, 3^(n-1), 2^(n(n-1)/2), standard line included."""
    for n in ns:
        want = _line_multiset(n)
        samples = [curves.standard_line(n)] + [
            curves.random_line(n, seed) for seed in range(1, n_lines + 1)
        ]
        for k, st in enumerate(_restrictions(VeroneseContext(n, 2), samples)):
            if st.degrees != want:
                return False, f"n={n} sample {k}: got {st.degrees}, want {want}"
    return True, f"{len(ns) * (n_lines + 1)} line restrictions, all exact"


def check_rnc_restriction_d2(ns, n_curves: int) -> tuple[bool, str]:
    """d = 2 on rational normal curves: (2n+2) repeated n(n+1)/2 times."""
    for n in ns:
        want = (2 * n + 2,) * (n * (n + 1) // 2)
        samples = [curves.rnc(n, seed) for seed in range(n_curves)]
        for seed, st in enumerate(_restrictions(VeroneseContext(n, 2), samples)):
            if st.degrees != want:
                return False, f"n={n} seed {seed}: got {st.degrees}"
    return True, f"{len(ns) * n_curves} rational-normal-curve restrictions, all exact"


def check_grauert_mulich_chern(cases, n_lines: int) -> tuple[bool, str]:
    """Random lines: spread <= 1, degree sum and rank match the Chern data."""
    for n, d in cases:
        ctx = VeroneseContext(n, d)
        samples = [curves.random_line(n, seed) for seed in range(1, n_lines + 1)]
        for seed, st in enumerate(_restrictions(ctx, samples), start=1):
            rep = chow.gm_check(st, ctx)
            if not rep.all_ok:
                return False, f"(n,d)=({n},{d}) seed {seed}: {rep.to_json()}"
    return True, f"{len(cases) * n_lines} restrictions pass spread/sum/rank"


def check_dual_identity(n_max: int, d_max: int) -> tuple[bool, str]:
    """dual(theta) vs the contraction chain, with the diagonal recorded."""
    diags = []
    for n in range(1, n_max + 1):
        for d in range(2, d_max + 1):
            rep = bundles.verify_dual_identity(VeroneseContext(n, d))
            if not rep.ok or not rep.is_scalar:
                return False, f"(n,d)=({n},{d}): {rep.detail}"
            if rep.scale != factorial(d - 1):
                return False, f"(n,d)=({n},{d}): diagonal {rep.scale} != (d-1)!"
            diags.append(f"({n},{d}):{rep.scale}")
    return True, "scalar diagonals " + " ".join(diags)


def check_commute_suite(count: int) -> tuple[bool, str]:
    """Symmetrize-then-dualize vs dualize-then-symmetrize on random sequences."""
    rng = SplitMix64(2024)
    for k in range(count):
        ses = symlin.random_ses(rng.next_u64())
        i = 1 + k % 3
        if not symlin.check_commute(ses, i):
            return False, f"instance {k} dims {ses.dims} i={i}"
    return True, f"{count} random exact sequences, i <= 3, exact equality"


def check_k_tower_slopes(nd_max: int, cross_max: int) -> tuple[bool, str]:
    """Strict slope chain ending at 0; degrees cross-checked on a line."""
    for n in range(1, nd_max + 1):
        for d in range(2, nd_max + 1):
            ctx = VeroneseContext(n, d)
            stats = [bundles.k_bundle_stats(ctx, i) for i in range(1, d + 2)]
            slopes = [s.slope for s in stats]
            if not all(a < b for a, b in zip(slopes, slopes[1:])):
                return False, f"(n,d)=({n},{d}): slopes {slopes} not increasing"
            if slopes[-1] != 0:
                return False, f"(n,d)=({n},{d}): terminal slope {slopes[-1]}"
    checked = 0
    for n in range(1, cross_max + 1):
        for d in range(2, cross_max + 1):
            ctx = VeroneseContext(n, d)
            line = curves.random_line(n, 11) if n > 1 else curves.standard_line(1)
            for i in range(1, d + 1):
                pres = bundles.delta_matrix(ctx, i).dual().pullback(line)
                st = p1split.splitting_type(pres)
                want = bundles.k_bundle_stats(ctx, i)
                if -st.degree != want.degree or st.rank != want.rank:
                    return False, f"(n,d,i)=({n},{d},{i}): {st.degrees} vs {want}"
                checked += 1
    return True, (
        f"slope chains strict for n,d <= {nd_max}; "
        f"{checked} kernel degrees cross-checked on lines"
    )


def check_tangent_restrictions(ns) -> tuple[bool, str]:
    """Euler cokernel on lines and rational normal curves, plus symmetric squares."""
    for n in ns:
        euler = bundles.euler_presentation(n)
        on_line = p1split.splitting_type(euler.pullback(curves.standard_line(n)))
        if on_line.degrees != tuple([2] + [1] * (n - 1)):
            return False, f"n={n} line: {on_line.degrees}"
        for seed in (0, 1):
            on_rnc = p1split.splitting_type(euler.pullback(curves.rnc(n, seed)))
            if on_rnc.degrees != (n + 1,) * n:
                return False, f"n={n} rnc seed {seed}: {on_rnc.degrees}"
        if on_line.sym_square().degrees != _line_multiset(n):
            return False, f"n={n}: sym^2 of line tangent mismatch"
        if on_rnc.sym_square().degrees != (2 * n + 2,) * (n * (n + 1) // 2):
            return False, f"n={n}: sym^2 of rnc tangent mismatch"
    return True, f"n in {tuple(ns)}: tangent splittings and symmetric squares exact"


# -- restriction routes -----------------------------------------------------------


def _orbit_rows(e: int) -> tuple[tuple[int, ...], ...]:
    """s^e, s^(e-1) t, ..., t^e: forms that span S_e."""
    return tuple(tuple(int(i == j) for j in range(e + 1)) for i in range(e + 1))


def _plane_rows(e: int, seed: int) -> list[list[int]]:
    """Three forms of degree e drawn from SplitMix64(seed), entries in
    [-3, 3], redrawn until they are independent with no common zero."""
    rng = SplitMix64(seed)
    while True:
        rows = [[rng.next_int(-3, 3) for _ in range(e + 1)] for _ in range(3)]
        try:
            curve = curves._from_rows(e, rows)
        except BasePointError:
            continue
        if len(curve.span) == 3:
            return rows


def _route_curve(rows, n: int, seed: int | None) -> CurveParam:
    """The curve of the independent forms `rows`, which span a P^k, in P^n.

    With seed None the forms sit in the coordinate P^k (the other n - k
    forms are zero); otherwise the n + 1 forms are nonzero combinations
    of them with coefficients in [-3, 3] drawn from SplitMix64(seed),
    redrawn until they span the same P^k, so that for k < n no coordinate
    subspace holds the curve.
    """
    k, e = len(rows) - 1, len(rows[0]) - 1
    if seed is None:
        return curves._from_rows(e, list(rows) + [[0] * (e + 1)] * (n - k))
    rng = SplitMix64(seed)
    while True:
        mix = [[rng.next_int(-3, 3) for _ in rows] for _ in range(n + 1)]
        if all(any(m) for m in mix):
            forms = [[sum(a * r[j] for a, r in zip(m, rows)) for j in range(e + 1)] for m in mix]
            curve = curves._from_rows(e, forms)
            if len(curve.span) == k + 1:
                return curve


def route_cases() -> list[tuple[str, VeroneseContext, CurveParam]]:
    """The frozen (label, ctx, curve) cases of `check_restriction_routes`.

    One random member of each of the line, conic and twisted-cubic orbits,
    which `restriction_type` reads from the torus-fixed curve; then curves
    with k < e, which it scans on their span, each class in a coordinate
    and in a non-coordinate span; d = 2, 3, 4.  Every case has
    C(n+d, d) <= 120 and e <= 6, so the direct scan stays cheap.
    """
    # coefficient rows of s^(e-j) t^j, j = 0..e: s^2, t^2 and s^3, s t^2, t^3
    cover = ((1, 0, 0), (0, 0, 1))
    cusp = ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    quartic, quintic, sextic = (_plane_rows(e, e) for e in (4, 5, 6))
    specs = (  # name, forms, n, d, mixing seed (None: the coordinate span)
        ("line", _orbit_rows(1), 3, 3, 1),
        ("conic", _orbit_rows(2), 4, 2, 2),
        ("twisted cubic", _orbit_rows(3), 4, 4, 3),
        ("double cover of a line", cover, 3, 2, 4),
        ("double cover of a line", cover, 4, 3, None),
        ("cuspidal cubic", cusp, 3, 4, 5),
        ("cuspidal cubic", cusp, 5, 3, None),
        ("plane quartic", quartic, 4, 3, 6),
        ("plane quartic", quartic, 3, 4, None),
        ("plane quintic", quintic, 3, 2, 7),
        ("plane quintic", quintic, 2, 4, None),
        ("plane sextic", sextic, 3, 3, 8),
        ("plane sextic", sextic, 4, 3, None),
    )
    cases = []
    for name, rows, n, d, seed in specs:
        k, e = len(rows) - 1, len(rows[0]) - 1
        where = "a non-coordinate" if seed is not None and k < n else "the coordinate"
        label = f"{name} (e={e}) in {where} P^{k} of P^{n}, d={d}"
        cases.append((label, VeroneseContext(n, d), _route_curve(rows, n, seed)))
    return cases


def check_restriction_routes(cases) -> tuple[bool, str]:
    """`restriction_type`, the type `restrict` reports, against the direct
    scan of the whole pullback, on each (label, ctx, curve) case."""
    for label, ctx, curve in cases:
        got = bundles.restriction_type(ctx, curve)
        want = p1split.splitting_type(bundles.normal_presentation(ctx).pullback(curve))
        if got != want:
            return False, f"{label}: restriction_type {got.degrees}, direct scan {want.degrees}"
    return True, f"{len(cases)} curves: restriction_type equals the direct scan"


# -- randomized property suites ---------------------------------------------------


def _random_poly(rng: SplitMix64, nv: int, deg: int) -> HomPoly:
    terms = {}
    for mono in monomials(nv, deg):
        if rng.next_below(3):  # about 2/3 of monomials present
            c = rng.next_int(-5, 5)
            if c:
                terms[mono] = c
    return HomPoly._trusted(nv, deg, terms)


def _random_map(rng: SplitMix64, nv: int, src, tgt) -> GradedMap:
    """Random entries of degree t - s, row by row; zero where t < s."""
    rows = [
        [_random_poly(rng, nv, t - s) if t >= s else HomPoly.zero(nv, 0) for s in src]
        for t in tgt
    ]
    return GradedMap._trusted(nv, src, tgt, rows)


# Each prop_* draws one instance from rng and returns None when the property
# holds, else the text that follows "instance k" in the failure detail.


def prop_euler_identity(rng: SplitMix64) -> str | None:
    nv = rng.next_int(2, 4)
    deg = rng.next_int(1, 4)
    p = _random_poly(rng, nv, deg)
    acc = HomPoly.zero(nv, deg)
    for i in range(nv):
        acc = acc + HomPoly.variable(nv, i) * p.differentiate(i)
    return None if acc == p * deg else ""


def prop_substitution_homomorphism(rng: SplitMix64) -> str | None:
    nv = rng.next_int(2, 3)
    e = rng.next_int(1, 2)
    forms = [_random_poly(rng, 2, e) for _ in range(nv)]
    p = _random_poly(rng, nv, rng.next_int(1, 3))
    q = _random_poly(rng, nv, rng.next_int(1, 2))
    lhs = (p * q).substitute(forms)
    rhs = p.substitute(forms) * q.substitute(forms)
    return None if lhs == rhs else ""


def prop_stratum_functoriality(rng: SplitMix64) -> str | None:
    nv = rng.next_int(2, 3)
    p, q = rng.next_int(1, 3), rng.next_int(1, 2)
    inner_src = sorted(rng.next_int(-1, 1) for _ in range(q))
    inner_tgt = sorted(rng.next_int(1, 3) for _ in range(p))
    inner = _random_map(rng, nv, inner_src, inner_tgt)
    # outer must consume inner's target twists
    outer_p = rng.next_int(1, 3)
    outer_tgt = sorted(
        max(inner.target_twists) + rng.next_int(0, 2) for _ in range(outer_p)
    )
    outer = _random_map(rng, nv, inner.target_twists, outer_tgt)
    m = rng.next_int(-1, 2)
    lhs = outer.compose(inner).stratum(m)
    rhs = outer.stratum(m) * inner.stratum(m)
    return None if lhs == rhs else f" at twist {m}"


def _random_p1_presentation(
    rng: SplitMix64,
) -> tuple[GradedMap, p1split.SplittingType]:
    """A random P^1 presentation with a locally free cokernel, and its type."""
    while True:
        q = rng.next_int(1, 2)
        rank = rng.next_int(1, 2)
        src = sorted(rng.next_int(-2, 0) for _ in range(q))
        tgt = sorted(max(src) + rng.next_int(0, 2) for _ in range(q + rank))
        pres = _random_map(rng, 2, src, tgt)
        try:
            return pres, p1split.splitting_type(pres)
        except (p1split.NotInjectiveError, p1split.NotLocallyFreeError):
            continue


def prop_h0_oracle(rng: SplitMix64) -> str | None:
    pres, st = _random_p1_presentation(rng)
    top = max(st.degrees)
    lo, hi = -top - 2, top + 2
    profile = st.h0_profile(lo, hi)
    direct = [p1split.h0_direct(pres, m) for m in range(lo, hi + 1)]
    if profile != direct:
        return f": {profile} vs {direct}"
    # chi-consistency in the regime where the source has no h^1
    for m in range(-min(pres.source_twists) - 1, hi + 1):
        chi = sum(t + m + 1 for t in pres.target_twists) - sum(
            s + m + 1 for s in pres.source_twists
        )
        if sum(max(0, b + m + 1) for b in st.degrees) != chi:
            return f": chi mismatch at twist {m}"
    return None


def prop_degree_conservation(rng: SplitMix64) -> str | None:
    pres, st = _random_p1_presentation(rng)
    want = sum(pres.target_twists) - sum(pres.source_twists)
    return None if st.degree == want else ""


_PROPERTY_SUITES = (
    ("euler_identity", 101, prop_euler_identity),
    ("substitution_homomorphism", 202, prop_substitution_homomorphism),
    ("stratum_functoriality", 303, prop_stratum_functoriality),
    ("h0_oracle", 404, prop_h0_oracle),
    ("degree_conservation", 505, prop_degree_conservation),
)


def check_property_suites(count: int) -> tuple[bool, str]:
    """`count` instances of each property, drawn from the suite's own seed."""
    for name, seed, prop in _PROPERTY_SUITES:
        rng = SplitMix64(seed)
        for k in range(count):
            fault = prop(rng)
            if fault is not None:
                return False, f"{name}: instance {k}{fault}"
    details = ", ".join(f"{name} ok" for name, _, _ in _PROPERTY_SUITES)
    return True, f"{count} seeded instances per suite: " + details


# -- golden files -----------------------------------------------------------------


def _load_golden(name: str) -> dict:
    path = resources.files("veronese").joinpath("golden", name)
    with path.open("r", encoding="utf-8") as f:
        return json.load(f)


def check_golden_files(full: bool) -> tuple[bool, str]:
    name = "monomial_order_v1.json"
    try:
        golden = _load_golden(name)
        for key, monos in golden.items():
            nv, m = (int(x) for x in key.split(","))
            if [list(x) for x in monomials(nv, m)] != monos:
                return False, f"{name}: order mismatch at ({nv},{m})"

        name = "curves_v1.json"
        golden = _load_golden(name)
        for key, blob in golden.items():
            kind, n, seed = key.split(",")
            n, seed = int(n), int(seed)
            made = (
                curves.random_line(n, seed) if kind == "line" else curves.rnc(n, seed)
            )
            if made.to_json() != blob:
                return False, f"{name}: {key} differs from regenerated curve"

        name = "splitting_n2_d3_line_v1.json"
        golden = _load_golden(name)
        ctx = VeroneseContext(int(golden["n"]), int(golden["d"]))
        entries = golden["samples"] if full else golden["samples"][:2]
        labels = [f"seed {entry['seed']}" for entry in entries] + ["standard line"]
        wants = [entry["degrees"] for entry in entries]
        wants.append(golden["standard_line_degrees"])
        lines = [curves.random_line(ctx.n, int(entry["seed"])) for entry in entries]
        lines.append(curves.standard_line(ctx.n))
        # The direct scan, not `_restrictions`: the frozen types were made by
        # it, and this keeps the generic pullback scan in `verify`.
        pres = bundles.normal_presentation(ctx)
        for label, want, line in zip(labels, wants, lines):
            st = p1split.splitting_type(pres.pullback(line))
            if list(st.degrees) != want:
                return False, f"{name}: {label} gives {st.degrees}"
    except (OSError, ValueError, KeyError) as exc:
        return False, f"{name}: {exc}"
    return True, "monomial order, pinned curves, empirical splitting all match"


# -- corpus assembly ----------------------------------------------------------------

# One row per check, in report order: name, function, fast and full arguments.
_CHECKS = (
    ("rnc_balanced", check_rnc_balanced, (range(2, 6),), (range(2, 9),)),
    ("line_restriction_d2", check_line_restriction_d2, ((2, 3), 3), ((2, 3, 4, 5), 10)),
    ("rnc_restriction_d2", check_rnc_restriction_d2, ((2, 3), 2), ((2, 3, 4), 5)),
    (
        "grauert_mulich_chern",
        check_grauert_mulich_chern,
        (((2, 3),), 3),
        (((2, 3), (2, 4), (3, 3)), 10),
    ),
    ("dual_identity", check_dual_identity, (3, 3), (4, 4)),
    ("symmetrize_dualize_commute", check_commute_suite, (25,), (100,)),
    ("k_tower_slopes", check_k_tower_slopes, (6, 2), (8, 3)),
    ("tangent_restrictions", check_tangent_restrictions, ((2, 3),), ((2, 3, 4),)),
    ("property_suites", check_property_suites, (15,), (50,)),
    ("golden_files", check_golden_files, (False,), (True,)),
)


def corpus(scope: str) -> list[tuple[str, object]]:
    """(name, zero-argument check) pairs of one scope, in report order."""
    if scope not in ("fast", "full"):
        raise ValueError(f"unknown scope {scope!r}")
    return [
        (name, partial(fn, *(full if scope == "full" else fast)))
        for name, fn, fast, full in _CHECKS
    ]


def run_corpus(scope: str) -> dict:
    checks = []
    passed = True
    for name, fn in corpus(scope):
        t0 = time.monotonic()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failing check, not a crash of verify
            ok, detail = False, f"exception: {exc!r}"
        elapsed = round(time.monotonic() - t0, 3)
        passed = passed and ok
        checks.append(
            {"name": name, "status": "pass" if ok else "fail", "elapsed_s": elapsed, "detail": detail}
        )
    return {
        "command": "verify",
        "scope": scope,
        "passed": passed,
        "checks": checks,
        "note": SEMISTABILITY_NOTE,
    }
