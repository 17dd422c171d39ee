"""Fast check of the benchmark harness on tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs scaled down (N = 200, one block of compares), timed and
traced, and must pass its output checks and emit exactly the metrics that
BENCHMARK.json names, with their units.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

TINY = {
    "verify-2000": workloads.Verify(200, workers=1, via_cli=False, setup_reps=2),
    "verify-5000-w2": workloads.Verify(200, workers=2, via_cli=True, setup_reps=2),
    "compare-2000": workloads.CompareSession(200, oracle_sample=4, setup_reps=2, trace_ops=2000),
}


def test_workload_names_match():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS) == set(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(bench, "WORK", str(tmp_path))
    argv = ["--workload", name, "--seed", "7", "--seconds", "0.05", "--trace", str(trace)]
    assert bench.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert os.path.isfile(tmp_path / f"trace-{name}.tsv")
    assert [p for p in os.listdir(tmp_path) if p.startswith("run-")] == []
