"""Benchmark of the veronese engine: splitting-type latency and throughput.

Run from the root of a checkout:

    python3 bench/run.py --workload line-scan --seed 1 --seconds 36 --trace 0

One client in a closed loop: an op starts only after the previous one has
returned, in this single process, with no extra threads.  Inputs come from
--seed (see workloads.py); every op's output is checked against the frozen
splitting types in expected.json.  Times are scaled by a reference kernel
timed next to each op (see reference_kernel and README.md).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same timed
loop, then a separate traced pass over a fixed number of rounds, and
prints the per-layer metrics (calls and self time of each layer's public
functions, see spans.py); its spans go to .bench_out/.  The line before
the last one on stdout is a report with the machine, the interpreter, the
source revision and the sample counts behind each percentile; the last
line is the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_OPS = 100  # at least 10 samples beyond p90
SETUP_REPS = 3  # set-up runs whose median is setup_s
SETUP_KERNELS = 5  # reference_kernel() runs on each side of a set-up
PASS_CAP = 2  # a timed pass stops after PASS_CAP * --seconds even below MIN_OPS
# Seconds of reference_kernel() at the machine speed the reported times are
# expressed in; its median ranged from 0.0037 to 0.008 on the machine of
# baseline.json.
KERNEL_REF_S = 0.006

# Functions named by their own per-layer metrics; the rest of each layer's
# wrapped functions count only in the layer totals.
CALLS_OF = (
    "linalg.RowSpan.add", "linalg.QMatrix.rref", "p1split.splitting_type",
    "gradedmap.GradedMap.stratum", "gradedmap.binary_gcd", "poly.HomPoly.substitute",
)
SELF_OF = CALLS_OF + (
    "gradedmap.GradedMap.pullback", "poly.HomPoly.evaluate", "poly.parse_poly",
    "cli.main", "chow.gm_check", "bundles.normal_presentation",
    "symlin.check_commute", "verify.check",
)
# Unit of each metric, by its last dotted part.
UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
    "calls": "count", "self_s": "s", "cells": "count", "max_bits": "bits",
    "useful_ratio": "ratio", "unattributed_s": "s", "overhead_frac": "ratio", "wall_s": "s",
}


def load_veronese():
    """A fresh import of the package, so each set-up pays for its import."""
    for key in [k for k in sys.modules if k == "veronese" or k.startswith("veronese.")]:
        del sys.modules[key]
    vr = importlib.import_module("veronese")
    importlib.import_module("veronese.cli")
    importlib.import_module("veronese.verify")
    return vr


def attempt(op, call=None) -> tuple[float, bool, str | None]:
    """Run one op: latency in seconds, whether it was right, and the
    traceback of an op that raised (a raising op is a failed op)."""
    call = call or op.call
    t0 = perf_counter()
    try:
        out = call()
    except Exception:
        return perf_counter() - t0, False, traceback.format_exc()
    latency = perf_counter() - t0
    try:
        return latency, bool(op.check(out)), None
    except Exception:
        return latency, False, traceback.format_exc()


def warm_up(ops) -> list[tuple[str, str | None]]:
    """Run the warm-up ops; their failures."""
    failures = []
    for op in ops:
        _, ok, err = attempt(op)
        if not ok:
            failures.append((op.label, err))
    return failures


_KERNEL_ROWS = [[Fraction((7 * i + 3 * j) % 19 - 9) for j in range(24)] for i in range(10)]


def reference_kernel() -> float:
    """Seconds for a fixed Gauss-Jordan elimination over Fraction, with the
    cyclic garbage collector paused so that no collection lands in it.

    On a host shared with other tenants, how fast Python runs can change
    by up to 1.6x from one second to the next (2-core VM of baseline.json).
    Timing this kernel on both sides of each op and dividing by it cancels
    that drift; it is benchmark code, so no change to veronese moves it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        m = [row[:] for row in _KERNEL_ROWS]
        r = 0
        for c in range(len(m[0])):
            piv = next((i for i in range(r, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
            if r == len(m):
                break
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def kernel_median(runs: int) -> float:
    return statistics.median(reference_kernel() for _ in range(runs))


class Pass:
    """Ops run one after another, the reference kernel timed between them.

    Each op's times are kept raw and scaled by KERNEL_REF_S over the mean
    of the kernel times just before and just after it.  `busy` is the time
    from an op's start to the end of its check, so kernel time is left out.
    """

    def __init__(self):
        self.kernel = [reference_kernel()]
        self.latency: list[float] = []
        self.scaled: list[float] = []
        self.busy = 0.0
        self.busy_scaled = 0.0
        self.failures: list[tuple[str, str | None]] = []

    def run(self, op, call=None) -> None:
        t0 = perf_counter()
        latency, ok, err = attempt(op, call)
        busy = perf_counter() - t0
        self.kernel.append(reference_kernel())
        scale = 2 * KERNEL_REF_S / (self.kernel[-2] + self.kernel[-1])
        self.latency.append(latency)
        self.scaled.append(latency * scale)
        self.busy += busy
        self.busy_scaled += busy * scale
        if not ok:
            self.failures.append((op.label, err))


def timed_pass(rounds, seconds: float, min_ops: int) -> tuple[Pass, int]:
    """Whole rounds until `seconds` have passed and `min_ops` ops ran."""
    done = Pass()
    start = perf_counter()
    k = 0
    while True:
        for op in rounds[k % len(rounds)]:
            done.run(op)
        k += 1
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(done.latency) >= min_ops) or elapsed >= PASS_CAP * max(seconds, 1):
            return done, k


def traced_pass(vr, build, n_rounds: int) -> tuple[Tracer, float, list, Pass]:
    """With every layer wrapped: one set-up after the import (input
    generation and warm-up, spans of op id -1), then the first `n_rounds`
    rounds of its workload.  Returns the tracer, the set-up's seconds, the
    warm-up failures and the pass."""
    tracer = Tracer()
    root = tracer.wrap("op", lambda call: call())
    tracer.install(vr)
    try:
        t0 = perf_counter()
        wl = build()
        warm_failures = warm_up(wl.warmup)
        setup_s = perf_counter() - t0
        rounds = wl.rounds
        done = Pass()
        op_id = 0
        for k in range(n_rounds):
            for op in rounds[k % len(rounds)]:
                tracer.op_id = op_id
                call = tracer.wrap(op.span, op.call) if op.span else op.call
                done.run(op, lambda: root(call))
                op_id += 1
    finally:
        tracer.uninstall()
    return tracer, setup_s, warm_failures, done


def layer_metrics(tracer, wall: float, overhead_frac: float) -> dict:
    """Per-layer values from the spans; `wall` is the traced set-up's time
    plus the traced ops' busy time."""
    calls, self_s = tracer.self_times()
    values = {}
    for layer in LAYERS:
        mine = [k for k in calls if k.startswith(layer + ".")]
        values[f"{layer}.calls"] = sum(calls[k] for k in mine)
        values[f"{layer}.self_s"] = sum(self_s[k] for k in mine)
    for name in CALLS_OF:
        values[f"{name}.calls"] = calls[name]
    for name in SELF_OF:
        values[f"{name}.self_s"] = self_s[name]
    adds = calls["linalg.RowSpan.add"]
    values["linalg.RowSpan.add.useful_ratio"] = tracer.counts["linalg.RowSpan.add.useful"] / adds if adds else 0.0
    for name in ("linalg.QMatrix.rref.cells", "linalg.QMatrix.rref.max_bits", "gradedmap.GradedMap.stratum.cells"):
        values[name] = tracer.counts[name]
    attributed = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values["trace.unattributed_s"] = wall - attributed
    values["trace.overhead_frac"] = overhead_frac
    values["trace.wall_s"] = wall
    return values


def machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "veronese").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "veronese_commit": git_commit(),
        "veronese_source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git;
    None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool,
        min_ops: int = MIN_OPS, setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """One benchmark run: (report, result) as printed on the last two lines."""
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_times, setup_scaled, warm_failures = [], [], []
        for _ in range(setup_reps):
            before = kernel_median(SETUP_KERNELS)
            t0 = perf_counter()
            vr = load_veronese()
            wl = WORKLOADS[workload](vr, seed, workdir)
            warm_failures += warm_up(wl.warmup)
            setup_times.append(perf_counter() - t0)
            setup_scaled.append(setup_times[-1] * 2 * KERNEL_REF_S / (before + kernel_median(SETUP_KERNELS)))
        gc.collect()
        timed, n_rounds = timed_pass(wl.rounds, seconds, min_ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n = len(timed.latency)
        values = {
            "ops_per_s": n / timed.busy_scaled,
            "op_p50_ms": statistics.median(timed.scaled) * 1e3,
            "op_p90_ms": statistics.quantiles(timed.scaled, n=10)[8] * 1e3,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        p90 = values["op_p90_ms"] / 1e3
        report = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "ops": n, "rounds": n_rounds, "ops_per_round": len(wl.rounds[0]),
            "failed_frac": len(timed.failures) / n,
            "percentile_samples": {"op_p50_ms": n, "op_p90_ms": n, "beyond_p90": sum(x > p90 for x in timed.scaled)},
            "kernel_s": {"median": statistics.median(timed.kernel), "samples": len(timed.kernel)},
            "unscaled": {"ops_per_s": n / timed.busy, "op_p50_ms": statistics.median(timed.latency) * 1e3,
                         "op_p90_ms": statistics.quantiles(timed.latency, n=10)[8] * 1e3,
                         "setup_s": statistics.median(setup_times)},
            "setup_samples_s": setup_times,
            "machine": machine_facts(),
        }
        failures = warm_failures + timed.failures
        if trace:
            traced_rounds = math.ceil(min_ops / len(wl.rounds[0]))
            gc.collect()
            tracer, traced_setup_s, traced_warm_failures, traced = traced_pass(
                vr, lambda: WORKLOADS[workload](vr, seed, workdir), traced_rounds)
            n_traced = len(traced.latency)
            overhead = sum(traced.scaled) / sum(timed.scaled[:n_traced]) - 1.0
            values = layer_metrics(tracer, traced_setup_s + traced.busy, overhead)
            spans_path = ROOT / ".bench_out" / f"{workload}-seed{seed}-spans.tsv.gz"
            tracer.write(spans_path)
            report.update(traced_ops=n_traced, spans=len(tracer.start), spans_file=str(spans_path.relative_to(ROOT)))
            failures += traced_warm_failures + traced.failures
        metrics = {k: {"value": v, "unit": UNITS[k.rsplit(".", 1)[-1]]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["failures"] = [{"op": label, "error": err} for label, err in failures[:5]]
    result = {"correct": not failures, "attempted": n, "failed": len(timed.failures), "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "veronese" / "__init__.py").is_file():
        print(f"bench: no veronese package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in report["failures"]:
        print(f"bench: op {failure['op']} failed\n{failure['error'] or 'wrong answer'}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
