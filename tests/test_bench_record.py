"""Smoke test of tools/bench_record.py with the benchmark runs stubbed out."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _fake_run(calls):
    def run_once(workload, seed, seconds):
        calls.append((workload, seed, seconds))
        metrics = {m["name"]: {"value": seed * 1.5, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        return {"correct": True, "attempted": 100 + seed, "failed": 0, "metrics": metrics}

    return run_once


def _fake_verify(calls):
    def time_verify(scope):
        calls.append(scope)
        return {"fast": 0.05, "full": 0.2}[scope] * sum(c == scope for c in calls)

    return time_verify


def test_record_schema(tmp_path, monkeypatch):
    calls, scopes = [], []
    monkeypatch.setattr(bench_record, "run_once", _fake_run(calls))
    monkeypatch.setattr(bench_record, "time_verify", _fake_verify(scopes))
    out = tmp_path / "BENCH_7.json"
    assert bench_record.main(["--pr", "7", "--seconds", "0.5", "--seeds", "4,1,2", "--out", str(out)]) == 0
    rec = json.loads(out.read_text(encoding="utf-8"))
    names = [w["name"] for w in SPEC["workloads"]]
    assert calls == [(w, s, 0.5) for w in names for s in (4, 1, 2)]
    assert scopes == ["fast"] * 3 + ["full"] * 3
    assert set(rec) == {"schema", "pr", "commit", "python", "machine", "seconds", "seeds", "workloads", "verify"}
    assert (rec["schema"], rec["pr"], rec["seconds"], rec["seeds"]) == ("veronese-bench-record/1", 7, 0.5, [4, 1, 2])
    assert rec["commit"] is None or isinstance(rec["commit"], str)
    assert isinstance(rec["python"], str)
    assert {"nproc", "cpu_model", "python", "veronese_source_sha256"} <= set(rec["machine"])
    assert list(rec["workloads"]) == names
    for w in rec["workloads"].values():
        assert w["attempted"] == [104, 101, 102]
        assert list(w["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for m in SPEC["end_to_end"]:
            got = w["metrics"][m["name"]]
            assert got == {"unit": m["unit"], "better": m["better"],
                           "median": statistics.median([6.0, 1.5, 3.0]), "runs": [6.0, 1.5, 3.0]}
    assert list(rec["verify"]) == ["fast", "full"]
    for scope, unit in (("fast", 0.05), ("full", 0.2)):
        runs = [unit, 2 * unit, 3 * unit]
        assert rec["verify"][scope] == {"unit": "s", "better": "lower", "median": runs[1], "runs": runs}


def test_failed_run_writes_nothing(tmp_path, monkeypatch, capsys):
    def failing(workload, seed, seconds):
        raise bench_record.RunFailed(f"{workload} seed {seed}: 1 ops failed")

    monkeypatch.setattr(bench_record, "run_once", failing)
    out = tmp_path / "BENCH_7.json"
    assert bench_record.main(["--pr", "7", "--seconds", "1", "--seeds", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("bench_record: ")


@pytest.mark.parametrize("seeds", ["", "1,x"])
def test_malformed_seeds_are_refused(seeds):
    with pytest.raises(SystemExit):
        bench_record.main(["--pr", "7", "--seeds", seeds])


def test_failed_verify_writes_nothing(tmp_path, monkeypatch, capsys):
    def failing(scope):
        raise bench_record.RunFailed(f"verify --scope {scope}: a check failed")

    monkeypatch.setattr(bench_record, "run_once", _fake_run([]))
    monkeypatch.setattr(bench_record, "time_verify", failing)
    out = tmp_path / "BENCH_7.json"
    assert bench_record.main(["--pr", "7", "--seconds", "1", "--seeds", "1", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == "bench_record: verify --scope fast: a check failed\n"


def test_time_verify_runs_the_fast_corpus_in_a_fresh_interpreter():
    assert 0 < bench_record.time_verify("fast") < 60
