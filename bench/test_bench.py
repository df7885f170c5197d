"""Tests of the benchmark itself (not part of the package's test suite).

    python -m pytest bench/test_bench.py -q

The coverage test runs each workload at full size once, so the module takes
about half a minute.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS

NAMES = sorted(WORKLOADS)


def _exact(metrics):
    # Work counts repeat exactly; seconds and what is derived from them do not.
    timed = ("self_s", "total_s", "coverage", "trace.overhead_s")
    return {k: v for k, v in metrics.items() if not k.endswith(timed)}


@pytest.mark.parametrize("name", NAMES)
def test_tiny_smoke_run(name):
    res = run.run(name, seed=1, seconds=0.0, trace=False, size="tiny", probes=1)
    assert res["failed"] == 0 and res["correct"]
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_runs_repeat_work_counts_and_outputs(name):
    a = run.run(name, seed=3, seconds=0.0, trace=True, size="tiny")
    b = run.run(name, seed=3, seconds=0.0, trace=True, size="tiny")
    assert a["correct"] and b["correct"]
    assert set(a["metrics"]) == set(tracing.metric_catalogue())
    assert _exact(a["metrics"]) == _exact(b["metrics"])
    assert a["report"]["digest"] == b["report"]["digest"]
    assert a["report"]["absent"] == []


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_cover_the_solve(name):
    res = run.run(name, seed=0, seconds=0.0, trace=True)
    assert res["correct"]
    assert res["metrics"]["trace.coverage"] >= 0.8
    # The rows named one by one must carry the cost too, not only the
    # catch-all layer sums.
    assert res["metrics"]["trace.named_coverage"] >= 0.8


def test_catalogue_matches_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == \
        tracing.metric_catalogue()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
