"""A tiny run of each workload, untraced and traced."""

import pytest

import run
import workloads

TINY = workloads.Sizing(
    sqlite_inserts=20, sqlite_runs=1, hit_session_runs=2, ferret_queries=60, ferret_runs=2,
    setup_reps=1, warmup_ops=1, side_seeds=1,
)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_smoke(name, tmp_path):
    result = workloads.run_workload(name, 3, 1.0, False, TINY, str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    m = result["metrics"]
    assert m["setup_s"] > 0 and m["ops_per_s"] > 0 and m["peak_rss_mb"] > 0
    assert result["host"]["nproc"] >= 1
    assert result["sim"]["ops"] >= 1 and result["sim"]["virtual_ns"] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke(name, tmp_path):
    result = workloads.run_workload(name, 3, 2.0, True, TINY, str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    layers = result["layers"]
    assert set(layers) == set(run.PER_LAYER)
    assert result["spans"] > 0
    assert layers["trace.ops_per_s"] > 0 and layers["apps.resumes"] > 0
    if name == "cold-profile":
        assert layers["parallel.dispatch_s"] == 0.0
        assert layers["checkpoint.hit_ratio"] == 0.0
    if name == "warm-parallel":
        assert layers["checkpoint.hit_ratio"] == 1.0
    if name == "service-mix":
        assert layers["journal.appends"] > 0 and layers["service.hit_ratio"] > 0
