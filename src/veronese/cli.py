"""Command-line interface.

Commands: normal, restrict, slopes, verify.  JSON is the canonical output
(stable field order, rationals as strings in lowest terms); tables are a
derived human view.  Exit codes: 0 success, 1 verification failure,
2 invalid mathematical input, 3 I/O or format error.  The default seed
comes from the VERONESE_SEED environment variable when --seed is absent
and the curve is drawn (line, rnc); a curve file uses no seed, so the
variable is not read.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bundles, chow, curves, verify
from .bundles import VeroneseContext, VeroneseDegreeError
from .gradedmap import CurveParam

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "table"), default="json")
    sub.add_argument("--out", default=None, help="write output to a file")


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _emit(payload: dict, table: str, args) -> int:
    text = json.dumps(payload, indent=2) if args.format == "json" else table
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text + "\n")
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write {args.out}: {exc}")
    else:
        print(text)
    return EXIT_OK


# -- normal ------------------------------------------------------------------


def cmd_normal(args) -> int:
    ctx = VeroneseContext(args.n, args.d)
    stats = chow.normal_stats(ctx)
    pres = bundles.normal_presentation(ctx)
    hp = chow.hilbert_poly(pres)
    chern = chow.chern_normal(ctx)
    payload = {
        "command": "normal",
        "n": ctx.n,
        "d": ctx.d,
        **stats.to_json(),
        "hilbert": hp.to_json(),
        "chern": [str(c) for c in chern.coeffs],
        "presentation": pres.to_json(),
    }
    lines = [
        f"normal bundle of the degree-{ctx.d} embedding of P^{ctx.n}",
        f"  rank   {stats.rank}",
        f"  degree {stats.degree}",
        f"  slope  {stats.slope}",
        f"  chern  {[str(c) for c in chern.coeffs]}",
        f"  chi(m) alphas {[str(a) for a in hp.alphas]}",
        f"  presentation {pres.shape[0]}x{pres.shape[1]}, "
        f"O({pres.source_twists[0]})^{len(pres.source_twists)} -> "
        f"O({pres.target_twists[0]})^{len(pres.target_twists)}",
    ]
    return _emit(payload, "\n".join(lines), args)


# -- restrict ----------------------------------------------------------------


def _curve_samples(args, seed: int) -> tuple[list[tuple[int | None, CurveParam]], dict]:
    if args.curve == "file":
        if not args.path:
            raise OSError("--curve file requires --path")
        with open(args.path, "r", encoding="utf-8") as f:
            blob = json.load(f)
        curve = CurveParam.from_json(blob)
        if curve.ambient_vars != args.n + 1:
            raise ValueError(
                f"curve file has {curve.ambient_vars} forms, expected {args.n + 1}"
            )
        return [(None, curve)], {"kind": "file", "path": args.path}
    maker = curves.random_line if args.curve == "line" else curves.rnc
    out = [(seed + k, maker(args.n, seed + k)) for k in range(args.samples)]
    return out, {"kind": args.curve, "seed": seed}


def cmd_restrict(args) -> int:
    ctx = VeroneseContext(args.n, args.d)
    if args.samples < 1:
        return _fail(EXIT_BAD_INPUT, "--samples must be >= 1")
    seed = args.seed
    if seed is None and args.curve != "file":
        raw = os.environ.get("VERONESE_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            return _fail(EXIT_IO, f"VERONESE_SEED is not an integer: {raw!r}")
    try:
        samples, curve_info = _curve_samples(args, seed)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        return _fail(EXIT_IO, f"cannot load curve: {exc}")
    except ValueError as exc:
        return _fail(EXIT_IO, f"invalid curve: {exc}")
    rows = []
    lines = [f"restriction of the (n={ctx.n}, d={ctx.d}) normal bundle: {curve_info}"]
    seen = set()
    for index, (seed, curve) in enumerate(samples):
        st = bundles.restriction_type(ctx, curve)
        rep = chow.gm_check(st, ctx, curve_degree=curve.degree)
        seen.add(st.degrees)
        rows.append(
            {
                "index": index,
                "seed": seed,
                "curve": curve.to_json(),
                "splitting": st.to_json(),
                "gm": rep.to_json(),
            }
        )
        lines.append(
            f"  sample {index} (seed {seed}): {list(st.degrees)}"
            f"  gm {'ok' if rep.all_ok else 'VIOLATION'}"
        )
    identical = len(seen) == 1
    lines.append(f"  all samples identical: {identical}")
    payload = {
        "command": "restrict",
        "n": ctx.n,
        "d": ctx.d,
        "curve": curve_info,
        "samples": rows,
        "allSamplesIdentical": identical,
    }
    return _emit(payload, "\n".join(lines), args)


# -- slopes -------------------------------------------------------------------


def cmd_slopes(args) -> int:
    ctx = VeroneseContext(args.n, args.d)
    stats = [bundles.k_bundle_stats(ctx, i) for i in range(1, ctx.d + 2)]
    rows = [
        {"i": i, "rank": st.rank, "degree": st.degree, "slope": str(st.slope)}
        for i, st in enumerate(stats, start=1)
    ]
    slopes = [st.slope for st in stats]
    monotonic = (
        all(a < b for a, b in zip(slopes, slopes[1:])) and slopes[-1] == 0
    )
    payload = {
        "command": "slopes",
        "n": ctx.n,
        "d": ctx.d,
        "rows": rows,
        "monotonic": monotonic,
    }
    lines = [
        f"contraction-kernel tower for (n={ctx.n}, d={ctx.d})",
        f"  {'i':>3} {'rank':>6} {'degree':>8} {'slope':>10}",
    ]
    for r in rows:
        lines.append(f"  {r['i']:>3} {r['rank']:>6} {r['degree']:>8} {r['slope']:>10}")
    lines.append(f"  monotonic: {'pass' if monotonic else 'FAIL'}")
    return _emit(payload, "\n".join(lines), args)


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    report = verify.run_corpus(args.scope)
    lines = [f"verification corpus, scope {args.scope}"]
    for c in report["checks"]:
        lines.append(
            f"  [{c['status'].upper():4}] {c['name']:28} {c['elapsed_s']:8.3f}s  {c['detail']}"
        )
    lines.append(f"  note: {report['note']}")
    lines.append("  overall: " + ("pass" if report["passed"] else "FAIL"))
    code = _emit(report, "\n".join(lines), args)
    if code != EXIT_OK:
        return code
    if not report["passed"]:
        failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        return _fail(EXIT_VERIFY_FAILED, f"verification failed: {', '.join(failing)}")
    return EXIT_OK


# -- entry point ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="veronese",
        description="Exact normal-bundle presentations, restrictions, and splitting types",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_normal = subs.add_parser("normal", help="presentation and numerical invariants")
    p_normal.add_argument("--n", type=int, required=True)
    p_normal.add_argument("--d", type=int, required=True)
    _common_flags(p_normal)
    p_normal.set_defaults(fn=cmd_normal)

    p_restrict = subs.add_parser("restrict", help="splitting types along curves")
    p_restrict.add_argument("--n", type=int, required=True)
    p_restrict.add_argument("--d", type=int, required=True)
    p_restrict.add_argument("--curve", choices=("line", "rnc", "file"), default="line")
    p_restrict.add_argument("--path", default=None, help="curve JSON for --curve file")
    p_restrict.add_argument("--samples", type=int, default=1)
    p_restrict.add_argument("--seed", type=int, default=None)
    _common_flags(p_restrict)
    p_restrict.set_defaults(fn=cmd_restrict)

    p_slopes = subs.add_parser("slopes", help="contraction-kernel slope table")
    p_slopes.add_argument("--n", type=int, required=True)
    p_slopes.add_argument("--d", type=int, required=True)
    _common_flags(p_slopes)
    p_slopes.set_defaults(fn=cmd_slopes)

    p_verify = subs.add_parser("verify", help="run the verification corpus")
    p_verify.add_argument("--scope", choices=("fast", "full"), default="fast")
    _common_flags(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except VeroneseDegreeError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    except ValueError as exc:
        return _fail(EXIT_BAD_INPUT, f"invalid input: {exc}")
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
