"""The three benchmark workloads: inputs made from a seed, ops, and checks.

A workload is a list of rounds.  Every round holds the same number of ops
of each input class in a fixed order, so each round has the same class mix
and the percentiles of a run do not depend on where the time limit cuts
it.  The seed chooses the concrete inputs inside each class.

Every op is checked against the splitting types frozen in expected.json.
Each class admits exactly one type for every input the generator can make:
random lines (e = 1) and non-degenerate curves of degree e <= n are all
projectively equivalent to one standard curve, and the normal bundle of a
Veronese embedding is GL-homogeneous.  Plane curves of degree e > n have
moduli and can be special, so they are left out: with them a frozen type
could not be checked for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# (n, d) of the line restrictions, in round order.  The slowest class,
# (2, 6), comes twice, so that p90 falls inside it and not where the
# latencies of several classes overlap.
LINE_CLASSES = ((2, 4), (2, 5), (2, 6), (3, 3), (2, 6), (4, 2), (5, 2))
# (n, d, e) of the curve-file restrictions, each e <= n; three files a round.
FILE_CLASSES = ((2, 3, 2), (3, 2, 3), (2, 4, 2), (3, 3, 2), (4, 2, 3), (4, 2, 4))
FILES_PER_CLASS = 3
# n of the `--curve rnc` ops, d = 2; one each a round (4 of 22 ops).
RNC_NS = (3, 4, 5, 6)
COEFF_LO, COEFF_HI = -9, 9
# Rounds of distinct inputs; a run that needs more cycles through them.
LINE_POOL_ROUNDS = 64
FILE_POOL_ROUNDS = 16


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: `call` is timed, `check` judges its result."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    span: str | None = None  # layer span the traced pass opens around `call`


@dataclass(frozen=True)
class Workload:
    rounds: list[list[Op]]
    warmup: list[Op]  # ops on fixed inputs run during set-up, one per code path


def _expected(workload: str):
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[workload]


def _key(*parts: int) -> str:
    return ",".join(str(p) for p in parts)


def line_scan(vr, seed: int, workdir: Path) -> Workload:
    """splitting_type of the normal bundle pulled back to random lines."""
    pres = {
        nd: vr.bundles.normal_presentation(vr.bundles.VeroneseContext(*nd))
        for nd in dict.fromkeys(LINE_CLASSES)
    }
    want = _expected("line-scan")

    def op(nd, line) -> Op:
        return Op(
            f"line {_key(*nd)}",
            lambda: vr.p1split.splitting_type(pres[nd].pullback(line)),
            lambda st: list(st.degrees) == want[_key(*nd)],
        )

    rng = random.Random(seed)
    rounds = [
        [op(nd, vr.curves.random_line(nd[0], rng.randrange(1, 2**32))) for nd in LINE_CLASSES]
        for _ in range(LINE_POOL_ROUNDS)
    ]
    warmup = [op(nd, vr.curves.standard_line(nd[0])) for nd in pres]
    return Workload(rounds, warmup)


def _curve_blob(vr, rng: random.Random, n: int, e: int) -> dict:
    """n+1 binary forms of degree e <= n whose coefficients have rank e+1.

    Full rank makes the forms span every binary form of degree e, so the
    curve has no base point and is a rational normal curve in a P^e.
    """
    while True:
        rows = [[rng.randint(COEFF_LO, COEFF_HI) for _ in range(e + 1)] for _ in range(n + 1)]
        if vr.linalg.QMatrix(rows).rank() == e + 1:
            break
    forms = [vr.poly.HomPoly(2, e, {(e - k, k): c for k, c in enumerate(r)}) for r in rows]
    return {"degree": e, "forms": [vr.poly.render_poly(f) for f in forms]}


def _restrict_op(vr, label: str, argv: list[str], out: Path, want: list[int]) -> Op:
    def check(code) -> bool:
        if code != 0:
            return False
        with out.open(encoding="utf-8") as f:
            return json.load(f)["samples"][0]["splitting"]["degrees"] == want

    return Op(label, lambda: vr.cli.main(argv + ["--out", str(out)]), check)


def curve_file(vr, seed: int, workdir: Path) -> Workload:
    """`veronese restrict` through cli.main on curve files and seeded RNCs."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out.json"
    want = _expected("curve-file")
    count = 0

    def file_op(rng, n, d, e) -> Op:
        nonlocal count
        path = workdir / f"curve{count}.json"
        count += 1
        path.write_text(json.dumps(_curve_blob(vr, rng, n, e)), encoding="utf-8")
        argv = ["restrict", "--n", str(n), "--d", str(d), "--curve", "file", "--path", str(path)]
        return _restrict_op(vr, f"file {_key(n, d, e)}", argv, out, want[_key(n, d, e)])

    def rnc_op(n, curve_seed) -> Op:
        argv = ["restrict", "--n", str(n), "--d", "2", "--curve", "rnc", "--seed", str(curve_seed)]
        return _restrict_op(vr, f"rnc {n}", argv, out, want[f"rnc {n}"])

    rng = random.Random(seed)
    rounds = []
    for _ in range(FILE_POOL_ROUNDS):
        ops = [file_op(rng, *c) for c in FILE_CLASSES for _ in range(FILES_PER_CLASS)]
        ops += [rnc_op(n, rng.randrange(1, 2**32)) for n in RNC_NS]
        rounds.append(ops)
    fixed = random.Random(0)
    warmup = [file_op(fixed, *c) for c in FILE_CLASSES] + [rnc_op(RNC_NS[0], 0)]
    return Workload(rounds, warmup)


def verify_fast(vr, seed: int, workdir: Path) -> Workload:
    """One check of verify.corpus("fast") per op, in corpus order.

    The corpus is fixed, so the seed only rotates where the cycle starts.
    """
    entries = vr.verify.corpus("fast")
    if [name for name, _ in entries] != _expected("verify-fast"):
        raise RuntimeError("verify.corpus('fast') differs from the frozen check list")
    start = seed % len(entries)
    ops = [
        Op(f"check {name}", fn, lambda result: result[0] is True, span="verify.check")
        for name, fn in entries[start:] + entries[:start]
    ]
    return Workload([ops], ops)


WORKLOADS = {"line-scan": line_scan, "curve-file": curve_file, "verify-fast": verify_fast}
