"""Record the benchmark's end-to-end metrics in BENCH_<pr>.json.

Run from the root of a checkout:

    python3 tools/bench_record.py --pr 31
    python3 tools/bench_record.py --pr 31 --seconds 1 --seeds 1 --out /tmp/bench.json

For each workload that BENCHMARK.json names, `bench/run.py --workload W
--seed S --seconds T --trace 0` runs in its own process once per seed, and
each end-to-end metric is recorded as the median over the seeds, next to
the runs behind it.  The file also holds the commit, the Python version
and the machine as `machine_facts` of bench/run.py reports it.  Beside
the workloads, `verify.run_corpus("fast")` and `("full")` are each timed
in a fresh interpreter, so that the `_orbit_type` memo starts empty, and
the median of 3 such runs is recorded.  A run that exits nonzero, reports
a failed or wrong op or a failing verify report stops the script with exit
1 before anything is written.  Nothing under bench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPEC = ROOT / "BENCHMARK.json"
SCHEMA = "veronese-bench-record/1"
VERIFY_RUNS = 3


class RunFailed(RuntimeError):
    """A benchmark run exited nonzero or reported a failed or wrong op."""


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced `bench/run.py` run."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        raise RunFailed(f"{workload} seed {seed}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RunFailed(f"{workload} seed {seed}: {result['failed']} ops failed\n{proc.stderr}")
    return result


def time_verify(scope: str) -> float:
    """Seconds of one `verify.run_corpus(scope)` in a fresh interpreter."""
    code = (
        "import json, time\n"
        "from veronese import verify\n"
        "t = time.perf_counter()\n"
        f"report = verify.run_corpus({scope!r})\n"
        "print(json.dumps([time.perf_counter() - t, report['passed']]))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    if proc.returncode:
        raise RunFailed(f"verify --scope {scope}: exited {proc.returncode}\n{proc.stderr}")
    seconds, passed = json.loads(proc.stdout)
    if not passed:
        raise RunFailed(f"verify --scope {scope}: a check failed")
    return seconds


def record(pr: int, seconds: float, seeds: list[int]) -> dict:
    """Medians over `seeds` of every end-to-end metric of every workload,
    and of `VERIFY_RUNS` cold runs of each verify scope."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from run import git_commit, machine_facts

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, seed, seconds) for seed in seeds]
        metrics = {}
        for m in spec["end_to_end"]:
            runs = [r["metrics"][m["name"]]["value"] for r in results]
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "median": statistics.median(runs), "runs": runs}
        workloads[workload] = {"attempted": [r["attempted"] for r in results], "metrics": metrics}
    verify = {}
    for scope in ("fast", "full"):
        runs = [time_verify(scope) for _ in range(VERIFY_RUNS)]
        verify[scope] = {"unit": "s", "better": "lower", "median": statistics.median(runs), "runs": runs}
    return {
        "schema": SCHEMA,
        "pr": pr,
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "machine": machine_facts(),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": workloads,
        "verify": verify,
    }


def _seed_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the file name BENCH_<pr>.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seeds", type=_seed_list, default="1,2,3",
                        help="comma-separated workload seeds (default: 1,2,3)")
    parser.add_argument("--out", type=Path, default=None, help="output path (default: BENCH_<pr>.json at the root)")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    try:
        rec = record(args.pr, seconds, args.seeds)
    except RunFailed as err:
        print(f"bench_record: {err}", file=sys.stderr)
        return 1
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(rec, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
