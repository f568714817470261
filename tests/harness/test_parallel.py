"""Process-parallel executor: determinism, robustness, fallback semantics.

Failure-injection builders use ``multiprocessing.parent_process()`` to
detect whether they are running inside a pool worker (non-None) or in the
main process (None): a run can then fail *only* worker-side, so the
executor's retry-in-parent path is observable and the session completes.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.apps import registry
from repro.apps.example import build_example
from repro.core.config import CozConfig
from repro.harness import parallel
from repro.harness.comparison import compare_app, measure_runtimes
from repro.harness.overhead import measure_overhead
from repro.harness.parallel import (
    AUTO_JOBS,
    ParallelExecutionWarning,
    resolve_jobs,
)
from repro.harness.request import ExecutionConfig, ResilienceConfig
from repro.harness.runner import ProfileRequest, profile_app, run_profile_session
from repro.sim.clock import MS


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def _build_crashy(**kwargs):
    if _in_worker():
        raise RuntimeError("injected worker failure")
    return build_example(rounds=3)


def _build_killer(**kwargs):
    if _in_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return build_example(rounds=3)


def _build_sleepy(**kwargs):
    if _in_worker():
        time.sleep(3)
    return build_example(rounds=3)


def _build_hang(**kwargs):
    # long enough that an orphaned worker is observable after the session
    # returns; the fix terminates the process instead of waiting it out
    if _in_worker():
        time.sleep(30)
    return build_example(rounds=3)


def _build_seed0_hang(**kwargs):
    """App whose seed-0 run hangs, but only inside a pool worker."""
    spec = build_example(rounds=3)
    inner = spec.build

    def build(seed):
        if seed == 0 and _in_worker():
            time.sleep(30)
        return inner(seed)

    spec.build = build
    return spec


@pytest.fixture
def injected_app():
    """Register a failure-injection builder; yields a registry.build helper."""
    registered = []

    def make(name, builder):
        registry.register(name, builder, replace=True)
        registered.append(name)
        return registry.build(name)

    yield make
    for name in registered:
        registry.unregister(name)


def _small_cfg(scope):
    return CozConfig(scope=scope, experiment_duration_ns=MS(40))


# -- determinism -------------------------------------------------------------------

def test_resolve_jobs():
    assert resolve_jobs(1, 8) == 1
    assert resolve_jobs(16, 4) == 4          # clamped to task count
    auto = resolve_jobs(AUTO_JOBS, 8)
    assert auto == min(8, os.cpu_count() or 1)
    assert resolve_jobs(None, 8) == auto
    with pytest.raises(ValueError):
        resolve_jobs(-1, 4)


@pytest.mark.parametrize("app,kwargs,cfg_kwargs", [
    ("example", {"rounds": 30}, {"experiment_duration_ns": MS(40)}),
    ("ferret", {"n_queries": 120}, {
        "experiment_duration_ns": MS(20),
        "speedup_values": (0, 25, 50),
        "zero_speedup_prob": 0.4,
    }),
])
def test_parallel_profile_identical_to_serial(app, kwargs, cfg_kwargs):
    """jobs=4 merges the same ProfileData and ranked profile as jobs=1."""
    spec = registry.build(app, **kwargs)
    cfg = CozConfig(scope=spec.scope, **cfg_kwargs)
    serial = profile_app(spec, runs=4, coz_config=cfg, jobs=1)
    fanned = profile_app(spec, runs=4, coz_config=cfg, jobs=4)

    assert serial.data == fanned.data
    assert serial.experiment_count == fanned.experiment_count
    assert len(fanned.run_results) == 4
    assert [r.runtime_ns for r in serial.run_results] == \
        [r.runtime_ns for r in fanned.run_results]

    s_ranked = [(lp.line, lp.slope, [p.program_speedup for p in lp.points])
                for lp in serial.profile.ranked()]
    f_ranked = [(lp.line, lp.slope, [p.program_speedup for p in lp.points])
                for lp in fanned.profile.ranked()]
    assert s_ranked == f_ranked


def test_run_profile_session_with_request():
    spec = registry.build("example", rounds=20)
    request = ProfileRequest(
        runs=2, coz_config=_small_cfg(spec.scope),
        execution=ExecutionConfig(jobs=2),
    )
    out = run_profile_session(spec, request)
    assert len(out.data.runs) == 2
    assert out.experiment_count > 0


def test_measure_runtimes_parallel_matches_serial():
    spec = registry.build("example", rounds=20)
    serial = measure_runtimes(spec.build, runs=3, app_ref=spec.registry_ref, jobs=1)
    fanned = measure_runtimes(spec.build, runs=3, app_ref=spec.registry_ref, jobs=3)
    assert serial == fanned


def test_compare_app_parallel_matches_serial():
    serial = compare_app("swaptions", runs=2, jobs=1, n_iters=40)
    fanned = compare_app("swaptions", runs=2, jobs=2, n_iters=40)
    assert serial.baseline_ns == fanned.baseline_ns
    assert serial.optimized_ns == fanned.optimized_ns
    assert serial.speedup_pct == fanned.speedup_pct


def test_measure_overhead_parallel_matches_serial():
    spec = registry.build("swaptions", n_iters=40)
    serial = measure_overhead(spec, runs=2, jobs=1)
    fanned = measure_overhead(spec, runs=2, jobs=2)
    assert serial == fanned


# -- robustness --------------------------------------------------------------------

def test_raising_worker_is_retried_and_session_completes(injected_app):
    spec = injected_app("_test_crashy", _build_crashy)
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent"):
        out = profile_app(spec, runs=2, coz_config=_small_cfg(spec.scope), jobs=2)
    assert len(out.data.runs) == 2


def test_killed_worker_is_retried_and_session_completes(injected_app):
    spec = injected_app("_test_killer", _build_killer)
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent"):
        out = profile_app(spec, runs=2, coz_config=_small_cfg(spec.scope), jobs=2)
    assert len(out.data.runs) == 2


def test_timed_out_worker_is_retried_and_session_completes(injected_app, monkeypatch):
    spec = injected_app("_test_sleepy", _build_sleepy)
    monkeypatch.setattr(parallel, "_WATCHDOG_CAP_S", 0.25)
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent"):
        out = profile_app(spec, runs=2, coz_config=_small_cfg(spec.scope), jobs=2)
    assert len(out.data.runs) == 2


def test_hung_workers_are_terminated_on_timeout(injected_app, monkeypatch):
    """A timed-out run must not orphan its worker: ``Future.cancel()`` is a
    no-op on a running task and ``shutdown(wait=False)`` leaves the process
    grinding, so the executor has to terminate the pool outright.  The
    session still completes (every run retried in the parent) and no pool
    process survives it."""
    spec = injected_app("_test_hang", _build_hang)
    monkeypatch.setattr(parallel, "_WATCHDOG_CAP_S", 1.0)
    start = time.monotonic()
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent"):
        out = profile_app(spec, runs=4, coz_config=_small_cfg(spec.scope), jobs=2)
    assert len(out.data.runs) == 4
    # queued tasks must not each burn a full timeout behind hung workers
    assert time.monotonic() - start < 25.0
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and multiprocessing.active_children():
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def test_runs_harvested_before_a_hang_teardown_are_journaled(
    injected_app, monkeypatch, tmp_path
):
    """Outputs collected from finished futures just before a hung pool is
    terminated go through the journal hook like every other output: the
    journal holds every run, and resuming it executes nothing."""
    spec = injected_app("_test_seed0_hang", _build_seed0_hang)
    cfg = _small_cfg(spec.scope)
    path = str(tmp_path / "session.jsonl")
    monkeypatch.setattr(parallel, "_WATCHDOG_CAP_S", 2.0)
    with pytest.warns(ParallelExecutionWarning, match="retrying in parent"):
        first = run_profile_session(spec, ProfileRequest(
            runs=4, coz_config=cfg,
            execution=ExecutionConfig(jobs=2, batch_runs=1),
            resilience=ResilienceConfig(journal=path),
        ))
    assert len(first.data.runs) == 4
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    assert sorted(r["index"] for r in records if r["kind"] == "run") == [0, 1, 2, 3]

    def no_runs(task, keep_objects=False):
        raise AssertionError(f"resume re-executed run {task.index}")

    monkeypatch.setattr(parallel, "_run_task", no_runs)
    resumed = run_profile_session(spec, ProfileRequest(
        runs=4, coz_config=cfg,
        execution=ExecutionConfig(jobs=2, batch_runs=1),
        resilience=ResilienceConfig(resume=path),
    ))
    assert resumed.data == first.data


def test_pool_start_failure_degrades_to_serial(monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no process pool in this environment")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", NoPool)
    spec = registry.build("example", rounds=20)
    cfg = _small_cfg(spec.scope)
    with pytest.warns(ParallelExecutionWarning, match="running serially"):
        fanned = profile_app(spec, runs=2, coz_config=cfg, jobs=2)
    serial = profile_app(spec, runs=2, coz_config=cfg, jobs=1)
    assert fanned.data == serial.data


def test_unpicklable_factory_degrades_to_serial():
    # built directly (not via the registry): the build closure cannot cross
    # process boundaries, so the session must warn and run serially
    spec = build_example(rounds=20)
    assert spec.registry_ref is None
    cfg = _small_cfg(spec.scope)
    with pytest.warns(ParallelExecutionWarning, match="not picklable"):
        fanned = profile_app(spec, runs=2, coz_config=cfg, jobs=2)
    serial = profile_app(spec, runs=2, coz_config=cfg, jobs=1)
    assert fanned.data == serial.data


# -- CLI ---------------------------------------------------------------------------

def test_cli_profile_and_compare_with_jobs(capsys):
    from repro.cli import main

    assert main([
        "profile", "example", "--runs", "2", "--jobs", "2",
        "--experiment-ms", "60", "--speedup-step", "50",
    ]) == 0
    out = capsys.readouterr().out
    assert "Causal profile" in out
    assert "example.cpp" in out

    assert main(["compare", "swaptions", "--runs", "2", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "swaptions" in out and "%" in out
