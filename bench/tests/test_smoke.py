"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/tests

One round of every workload, untraced and traced, through the same code
path as a full run: every metric BENCHMARK.json names is present with its
unit, and no op fails.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round(workload, trace):
    report, result = run.run(workload, seed=3, seconds=0, trace=trace, min_ops=1, setup_reps=1)
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    assert report["failed_frac"] == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == report["ops_per_round"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self_s = sum(values[f"{layer}.self_s"] for layer in run.LAYERS)
        assert 0 <= values["trace.unattributed_s"] < values["trace.wall_s"]
        assert self_s + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"])
