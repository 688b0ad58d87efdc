"""Run bench/run.py once per seed and summarise each metric across the runs.

    python3 bench/spread.py --workload line-scan --seeds 1-10 --seconds 36

Runs are sequential, one process each, as the benchmark's own runs are.
For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median.  --json writes the runs
and the summary to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 1,5,9")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(proc.stderr, file=sys.stderr)
            return 1
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"report": report, "result": result})
        print(f"seed {seed}: correct={result['correct']} ops={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    summary = summarise([r["result"] for r in runs])
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:45} median {s['median']:12.6g} {s['unit']:6} spread {spread}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                         "trace": args.trace, "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
