"""Regenerate expected.json, the splitting types every benchmark op is checked against.

    python3 bench/freeze.py

Each frozen type is cross-checked by routes independent of the kernel
scan before it is written:
  * several inputs of the class, plus the class's standard curve, agree;
  * the degree sum equals the twist difference of the presentation;
  * h0_direct (strata ranks and Serre duality) agrees with the type's
    h0 profile at two twists;
  * the closed forms hold: 4, 3^(n-1), 2^(n(n-1)/2) for d = 2 lines and
    (2n+2)^(n(n+1)/2) for d = 2 rational normal curves;
  * every check of verify.corpus("fast") passes.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import veronese as vr  # noqa: E402
from veronese import verify  # noqa: E402
from workloads import FILE_CLASSES, LINE_CLASSES, RNC_NS, _curve_blob  # noqa: E402


def _monomial_curve(n: int, e: int):
    """(s^e, s^(e-1) t, ..., t^e, 0, ..., 0): the standard curve of degree e <= n."""
    forms = [vr.HomPoly(2, e, {(e - k, k): 1} if k <= e else {}) for k in range(n + 1)]
    return vr.CurveParam(e, tuple(forms))


def _cross_checked(ctx, curves) -> list[int]:
    pres0 = vr.normal_presentation(ctx)
    types = set()
    for curve in curves:
        pres = pres0.pullback(curve)
        st = vr.splitting_type(pres)
        if st.degree != sum(pres.target_twists) - sum(pres.source_twists):
            raise AssertionError(f"{ctx}: degree sum {st.degree} is not the twist difference")
        for m in (-max(st.degrees), -min(st.degrees)):
            if vr.h0_direct(pres, m) != st.h0_profile(m, m)[0]:
                raise AssertionError(f"{ctx}: h0_direct disagrees at twist {m}")
        types.add(st.degrees)
    if len(types) != 1:
        raise AssertionError(f"{ctx}: curves of one class disagree: {types}")
    return list(types.pop())


def freeze() -> dict:
    out = {"line-scan": {}, "curve-file": {}}
    for n, d in LINE_CLASSES:
        lines = [vr.standard_line(n)] + [vr.random_line(n, s) for s in (1, 2, 3)]
        degrees = _cross_checked(vr.VeroneseContext(n, d), lines)
        if d == 2 and degrees != sorted([4] + [3] * (n - 1) + [2] * (n * (n - 1) // 2), reverse=True):
            raise AssertionError(f"line ({n},{d}): {degrees} breaks the closed form")
        out["line-scan"][f"{n},{d}"] = degrees
    rng = random.Random(0)
    for n, d, e in FILE_CLASSES:
        curves = [_monomial_curve(n, e)] + [
            vr.CurveParam.from_json(_curve_blob(vr, rng, n, e)) for _ in range(3)
        ]
        out["curve-file"][f"{n},{d},{e}"] = _cross_checked(vr.VeroneseContext(n, d), curves)
    for n in RNC_NS:
        degrees = _cross_checked(vr.VeroneseContext(n, 2), [vr.rnc(n, s) for s in (0, 1, 2)])
        if degrees != [2 * n + 2] * (n * (n + 1) // 2):
            raise AssertionError(f"rnc n={n}: {degrees} breaks the closed form")
        out["curve-file"][f"rnc {n}"] = degrees
    names = []
    for name, fn in verify.corpus("fast"):
        ok, detail = fn()
        if not ok:
            raise AssertionError(f"verify check {name} fails: {detail}")
        names.append(name)
    out["verify-fast"] = names
    return out


def dumps(frozen: dict) -> str:
    """JSON with one class per line."""
    parts = []
    for workload, table in frozen.items():
        if isinstance(table, dict):
            body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
            parts.append(f" {json.dumps(workload)}: {{\n{body}\n }}")
        else:
            parts.append(f" {json.dumps(workload)}: {json.dumps(table)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    (HERE / "expected.json").write_text(dumps(freeze()), encoding="utf-8")
