"""Process-parallel execution of independent simulation runs.

Coz builds dense causal profiles by merging many short runs; each run is an
independent deterministic simulation, so the harness can fan them out over
a :class:`~concurrent.futures.ProcessPoolExecutor` without changing any
result.  Three properties make that safe:

* **seed assignment** — tasks carry the exact per-run seed the serial loop
  would have used (``base_seed + i``); workers never draw seeds themselves;
* **worker-side rebuild** — app specs hold closures that do not pickle, so
  tasks reference apps by :class:`~repro.apps.registry.AppRef` and workers
  rebuild them from :mod:`repro.apps.registry`.  Arbitrary picklable
  program factories are also accepted (the :func:`profile_program` path);
* **ordered merge** — results are reassembled in task-index order no matter
  which worker finished first, so the merged profile is bit-identical to
  the serial one.

Failure handling (typed by :mod:`repro.sim.errors`) leans on determinism:
a run is a pure function of its seed, so executing it in a worker or in
the parent returns the same bytes, and the executor only has to make sure
every run executes exactly once somewhere.

* **Deterministic run failures** — a run that raises
  :class:`~repro.sim.errors.SimulationError` (deadlock, injected thread
  crash, stuck lock-holder) fails identically on every retry, so it is
  *never* retried: :func:`_run_task` converts it into a
  :class:`~repro.core.profile_data.RunFailure` record carried home in the
  task's :class:`RunOutput`.  The session completes degraded instead of
  dying.
* **Worker failures: split, then the parent** — a failed unit (a worker
  exception, a broken pool, or a batch that returns short before the
  session deadline) is halved and resubmitted; a failed singleton runs in
  the parent.  Each worker exception either halves a batch or retires a
  singleton, so a session of n runs sees at most 2n - 1 of them.  A broken
  pool (``SIGKILL`` → ``BrokenProcessPool``) is rebuilt at most
  :data:`_POOL_REBUILDS` times per session; after that, or when the
  rebuild fails, the remaining runs execute in the parent.
* **Hangs** — each wait is bounded by a deadline derived from the running
  median of healthy worker wall-times (:class:`Watchdog`), so a hung
  worker can never hang the session.  Hung futures cannot be
  ``cancel()``-ed and ``shutdown(wait=False)`` merely orphans the
  processes, so the first hang harvests what finished, terminates the
  pool outright, and the remaining runs execute in the parent.

Every output — from a worker, from the parent, or harvested from a
finished future before a pool teardown — passes through one ``finish``
step that invokes the ``on_output`` hook (the session journal).

``KeyboardInterrupt``/``SystemExit`` are never swallowed: the pool's
processes are terminated and the interrupt re-raised, and because the
session journal (:mod:`repro.harness.journal`) fsyncs every record as it
is written, a Ctrl-C'd session is immediately resumable.

Auditing: with ``coz_config.audit`` set, each task's worker attaches a
:class:`~repro.core.audit.DelayAuditor` and ships the resulting
:class:`~repro.core.audit.AuditReport` home in its wire format
(``audit_json``).  ``execute_tasks(..., audit_report=...)`` additionally
re-executes a sampled subset of worker runs in the parent and checks
bit-identity (the *parallel-serial-identity* invariant).
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import signal
import statistics
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import CozConfig
from repro.core.profile_data import ProfileData, RunFailure
from repro.core.profiler import CausalProfiler
from repro.sim.errors import SimulationError, WorkerCrashError, WorkerHungError
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.program import Program, RunResult

#: cancelled futures raise this; BaseException on modern Pythons, so a bare
#: ``except Exception`` would miss it after a pool termination
_FutureCancelled = concurrent.futures.CancelledError

#: ``jobs`` value meaning "pick a worker count from the machine":
#: ``min(task count, os.cpu_count())``.
AUTO_JOBS = 0


class ParallelExecutionWarning(UserWarning):
    """A parallel batch degraded (fallback to serial, or a retried run)."""


def resolve_jobs(jobs: Optional[int], n_tasks: int) -> int:
    """Turn a ``jobs`` request into a concrete worker count.

    ``None`` or :data:`AUTO_JOBS` (0) means cpu-count-aware auto sizing;
    explicit values are clamped to the number of tasks.
    """
    if jobs is None or jobs == AUTO_JOBS:
        jobs = os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return max(1, min(jobs, n_tasks))


#: watchdog: until :data:`_WATCHDOG_MIN_SAMPLES` healthy runs have
#: reported, a wait is bounded by the generous cap; after that by
#: ``_WATCHDOG_FACTOR * median * runs + _WATCHDOG_GRACE_S`` (still capped)
_WATCHDOG_FACTOR = 8.0
_WATCHDOG_GRACE_S = 2.0
_WATCHDOG_MIN_SAMPLES = 3
_WATCHDOG_CAP_S = 300.0

#: times a broken pool is rebuilt per session before the remaining runs
#: execute in the parent
_POOL_REBUILDS = 1


class Watchdog:
    """Per-wait deadline from a running median of healthy wall-times.

    Only healthy worker runs feed the median — failed or faulted runs do
    not shrink it.
    """

    def __init__(self) -> None:
        self._walls: List[float] = []

    def observe(self, wall_s: float) -> None:
        if wall_s > 0:
            self._walls.append(wall_s)

    def deadline_for(self, n_runs: int) -> float:
        """Deadline for a wait covering ``n_runs`` batched runs."""
        if len(self._walls) < _WATCHDOG_MIN_SAMPLES:
            return _WATCHDOG_CAP_S
        bound = (
            _WATCHDOG_FACTOR * statistics.median(self._walls) * max(1, n_runs)
            + _WATCHDOG_GRACE_S
        )
        return min(_WATCHDOG_CAP_S, bound)


@dataclass
class RunTask:
    """One simulation run: what to build, how to seed it, what to measure.

    Exactly one of ``app_ref`` / ``program_factory`` should be set.  With
    ``coz_config`` set the run happens under a :class:`CausalProfiler`
    seeded ``replace(coz_config, seed=seed)`` — the serial loop's exact
    recipe; with ``coz_config=None`` it is a plain (unprofiled) run, as
    used by the comparison and overhead harnesses.  ``faults`` carries the
    session's :class:`~repro.sim.faults.FaultPlan` into the run (sim-level
    faults) and the worker (kill/hang faults).
    """

    index: int
    seed: int
    coz_config: Optional[CozConfig] = None
    #: picklable registry reference (:class:`repro.apps.registry.AppRef`)
    app_ref: Optional[object] = None
    #: direct factory; must be picklable to cross process boundaries
    program_factory: Optional[Callable[[int], Program]] = None
    progress_points: Tuple = ()
    latency_specs: Tuple = ()
    #: fault-injection plan for this run (``None`` = no injection)
    faults: Optional[FaultPlan] = None
    #: checkpoint fast-forward (repro.harness.checkpoint): resume this run
    #: from a stored snapshot when one exists, record one when it doesn't
    checkpoint: bool = False
    #: canonical run fingerprint the checkpoint store is keyed by
    checkpoint_key: Optional[str] = None
    #: shared on-disk checkpoint cache (workers read and populate it)
    checkpoint_dir: Optional[str] = None
    #: prefix snapshot shipped from the parent's store, so fan-out cost
    #: does not scale with warmup length (workers skip the store lookup)
    snapshot: Optional[object] = field(default=None, repr=False)


@dataclass
class RunOutput:
    """Result of one task: a run summary plus (for profiled runs) the
    profiler's data in the :meth:`ProfileData.to_json` wire format.

    A task that failed deterministically carries a ``failure`` record
    (:meth:`RunFailure.to_dict` wire form) instead of run data.
    """

    index: int
    seed: int
    run: Dict[str, Any] = field(default_factory=dict)
    data_json: Optional[str] = None
    #: binary columnar profile wire (:mod:`repro.core.binwire`) — what pool
    #: workers ship since the JSON wire became the debug/journal view; at
    #: most one of ``data_json`` / ``data_bin`` is set
    data_bin: Optional[bytes] = field(default=None, repr=False)
    #: per-run invariant audit (wire format), when the config asked for one
    audit_json: Optional[str] = None
    #: RunFailure wire dict when the run produced no data
    failure: Optional[Dict[str, Any]] = None
    #: worker-measured execution seconds (feeds the watchdog median);
    #: wall-clock, so excluded from equality
    wall_s: float = field(default=0.0, compare=False)
    #: in-process executions keep the live objects to skip re-parsing
    _data: Optional[ProfileData] = field(default=None, repr=False, compare=False)
    _run_result: Optional[RunResult] = field(default=None, repr=False, compare=False)
    _audit: Optional[object] = field(default=None, repr=False, compare=False)

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def run_failure(self) -> Optional[RunFailure]:
        if self.failure is None:
            return None
        return RunFailure.from_dict(self.failure)

    def profile_data(self) -> Optional[ProfileData]:
        if self._data is not None:
            return self._data
        if self.data_bin is not None:
            return ProfileData.from_bytes(self.data_bin)
        if self.data_json is None:
            return None
        return ProfileData.from_json(self.data_json)

    def run_result(self) -> Optional[RunResult]:
        if self._run_result is not None:
            return self._run_result
        if self.failed:
            return None
        return RunResult(engine=None, **self.run)

    def audit_report(self):
        """The run's :class:`~repro.core.audit.AuditReport`, if audited."""
        if self._audit is not None:
            return self._audit
        if self.audit_json is None:
            return None
        from repro.core.audit import AuditReport

        return AuditReport.from_json(self.audit_json)


def _summarize(result: RunResult) -> Dict[str, Any]:
    """The picklable subset of a RunResult (everything but the engine)."""
    return {
        "runtime_ns": result.runtime_ns,
        "cpu_ns": result.cpu_ns,
        "profiler_cpu_ns": result.profiler_cpu_ns,
        "delay_ns": result.delay_ns,
        "progress_counts": dict(result.progress_counts),
        "thread_count": result.thread_count,
        "sample_count": result.sample_count,
        "events_processed": result.events_processed,
    }


def _resolve_factory(task: RunTask):
    """(factory, progress_points, latency_specs) for a task, rebuilding
    registry-referenced apps by name.

    Registry rebuilds go through the process-global spec memo
    (:func:`repro.apps.registry.cached_build`): a warm pool worker builds
    each app of a session once, not once per task.
    """
    if task.app_ref is not None:
        from repro.apps.registry import cached_build

        spec = cached_build(task.app_ref)
        return spec.build, tuple(spec.progress_points), tuple(spec.latency_specs)
    if task.program_factory is None:
        raise ValueError("RunTask needs an app_ref or a program_factory")
    return task.program_factory, task.progress_points, task.latency_specs


def _checkpoint_store(task: RunTask):
    """The task's checkpoint store, or ``None`` when it cannot help.

    Workers without a shared cache directory skip the store entirely: their
    in-memory cache dies with the process, so recording there is pure
    overhead (a shipped ``task.snapshot`` still resumes them warm).
    Store instances are process-cached per (fingerprint, directory) so the
    manifest validation (makedirs + lock + read) happens once per session,
    not once per task.
    """
    if not task.checkpoint or task.checkpoint_key is None:
        return None
    in_worker = multiprocessing.parent_process() is not None
    if in_worker and task.checkpoint_dir is None:
        return None
    from repro.harness.checkpoint import CheckpointStore

    return CheckpointStore.shared(task.checkpoint_key, directory=task.checkpoint_dir)


def _run_task(task: RunTask, keep_objects: bool = False) -> RunOutput:
    """Execute one run; mirrors the serial loop body exactly.

    Deterministic simulation failures (deadlock, injected crash, stuck
    lock-holder) become a failure-record output — they would fail
    identically on any retry, so the run is marked lost and the session
    carries on degraded.  Checkpointed tasks go through
    :func:`repro.harness.checkpoint.execute_run`, which resumes from the
    deepest stored snapshot when one exists and records fresh checkpoints
    when it doesn't — bit-identical either way, including reproducing a
    deterministic failure from a snapshot taken before the fault fired.
    """
    factory, points, latency = _resolve_factory(task)

    def build():
        profiler = None
        if task.coz_config is not None:
            cfg = replace(task.coz_config, seed=task.seed)
            profiler = CausalProfiler(cfg, points, latency)
        program = factory(task.seed)
        run_config = None
        if task.faults is not None and task.faults.any_sim_faults:
            run_config = replace(program.config, faults=task.faults)
        return program, profiler, run_config

    try:
        if task.checkpoint and task.coz_config is not None:
            from repro.harness.checkpoint import execute_run, resolve_shipped

            store = _checkpoint_store(task)
            result, profiler = execute_run(
                build,
                task.seed,
                snapshot=resolve_shipped(task.snapshot, store),
                store=store,
            )
        else:
            program, profiler, run_config = build()
            result = program.run(hook=profiler, config=run_config)
    except SimulationError as exc:
        failure = RunFailure.from_error(task.index, task.seed, exc)
        return RunOutput(index=task.index, seed=task.seed, failure=failure.to_dict())
    out = RunOutput(index=task.index, seed=task.seed, run=_summarize(result))
    if keep_objects:
        out._run_result = result
        if profiler is not None:
            out._data = profiler.data
            out._audit = profiler.auditor.report() if profiler.auditor else None
    elif profiler is not None:
        out.data_bin = profiler.data.to_bytes()
        if profiler.auditor is not None:
            out.audit_json = profiler.auditor.report().to_json()
    return out


def _enact_worker_faults(task: RunTask, attempt: int) -> None:
    """Make the *worker process* fail, when the plan says so.

    Fires only inside pool workers (never in the parent) and only on a
    task's first attempt — the attempt number is folded into the fault
    RNG — so the executor's recovery paths are exercised and the retry
    then succeeds.
    """
    plan = task.faults
    if plan is None or not (plan.worker_kill or plan.worker_hang):
        return
    if multiprocessing.parent_process() is None:
        return
    inj = FaultInjector(plan, task.seed, attempt=attempt)
    if inj.worker_kill:
        os.kill(os.getpid(), signal.SIGKILL)
    elif inj.worker_hang:
        time.sleep(plan.worker_hang_s)


def _run_task_in_worker(task: RunTask, attempt: int = 0) -> RunOutput:
    """Worker entry point: wire-format output plus measured wall time."""
    _enact_worker_faults(task, attempt)
    start = time.perf_counter()
    out = _run_task(task, keep_objects=False)
    out.wall_s = time.perf_counter() - start
    return out


def _run_batch_in_worker(
    tasks: List[RunTask],
    attempts: List[int],
    deadline_monotonic: Optional[float] = None,
) -> List[RunOutput]:
    """Worker entry point for one :class:`RunBatch`: outputs in task order.

    Worker faults are enacted per member task — a kill mid-batch loses the
    whole batch's future and the parent's split-on-retry isolates the
    poisoned run.  With a session deadline the worker stops *between* runs
    once it passes and returns the completed prefix (monotonic clocks are
    system-wide on the supported platforms; a skewed clock merely shifts
    work back to the parent's deadline handling).
    """
    outs: List[RunOutput] = []
    for task, attempt in zip(tasks, attempts):
        if (
            deadline_monotonic is not None
            and outs
            and time.monotonic() >= deadline_monotonic
        ):
            break
        outs.append(_run_task_in_worker(task, attempt))
    return outs


def _run_serial(
    tasks: List[RunTask],
    on_output: Optional[Callable[[RunTask, RunOutput], None]] = None,
    deadline_monotonic: Optional[float] = None,
) -> List[RunOutput]:
    outputs = []
    for t in tasks:
        if deadline_monotonic is not None and time.monotonic() >= deadline_monotonic:
            break  # deadline passed: return what completed
        out = _run_task(t, keep_objects=True)
        if on_output is not None:
            on_output(t, out)
        outputs.append(out)
    return outputs


def _warn(message: str) -> None:
    warnings.warn(message, ParallelExecutionWarning, stacklevel=3)


#: cached picklability verdicts, keyed by task *shape* — the fields whose
#: types decide picklability (the app reference / factory), not per-run
#: payloads.  Bounded; cleared wholesale at the cap.
_PROBE_CACHE: Dict[Any, bool] = {}
_PROBE_CACHE_CAP = 128


def clear_probe_cache() -> None:
    """Forget cached picklability verdicts (tests)."""
    _PROBE_CACHE.clear()


def _probe_shape(task: RunTask) -> Any:
    """Hashable shape key for the probe cache, or ``None`` if unkeyable."""
    try:
        key = (task.app_ref, task.program_factory)
        hash(key)
        return key
    except TypeError:
        return None


def _picklable(task: RunTask) -> bool:
    """One cheap probe per task *shape*, not one ``pickle.dumps`` per task.

    Historically every task — snapshot payload included — was pickled once
    here and a second time at submission, doubling the serialization bill
    of a warm session.  Picklability is a property of the task's shape
    (which factory/app reference it carries), so the verdict is cached per
    shape and the probe itself drops the snapshot: shipped snapshots are
    wrapped in always-picklable byte/ref containers by the submit path.
    """
    shape = _probe_shape(task)
    if shape is not None and shape in _PROBE_CACHE:
        return _PROBE_CACHE[shape]
    try:
        pickle.dumps(replace(task, snapshot=None))
        verdict = True
    except (pickle.PicklingError, AttributeError, TypeError):
        verdict = False
    if shape is not None:
        if len(_PROBE_CACHE) >= _PROBE_CACHE_CAP:
            _PROBE_CACHE.clear()
        _PROBE_CACHE[shape] = verdict
    return verdict


#: auto batch sizing: a worker should see a handful of batches (so the
#: watchdog's median and straggler rebalancing still work), capped so one
#: lost batch never costs too much recomputation
_BATCH_OVERSUBSCRIBE = 4
_MAX_BATCH = 16


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def auto_batch_size(n_tasks: int, jobs: int) -> int:
    """Runs per IPC task when the caller didn't pin ``batch_runs``.

    Aims for :data:`_BATCH_OVERSUBSCRIBE` batches per worker so finishing
    order can still rebalance stragglers.  When the machine cannot actually
    run ``jobs`` workers concurrently (fewer usable cores than workers),
    finer slicing buys no load balance — only IPC — so batches grow to
    ``ceil(n/jobs)`` instead.
    """
    if n_tasks <= 1 or jobs <= 1:
        return 1
    if jobs > _effective_cores():
        per = -(-n_tasks // jobs)
    else:
        per = n_tasks // (jobs * _BATCH_OVERSUBSCRIBE)
    return max(1, min(_MAX_BATCH, per))


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, hung workers included.

    ``Future.cancel()`` is a no-op once a task is running and
    ``shutdown(wait=False)`` merely abandons the worker processes, which
    keep grinding (and keep queued tasks starved) until they finish on
    their own.  The only way to reclaim a hung worker is to terminate its
    process.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=1.0)


def _audit_identity(tasks, outputs, audit_report) -> None:
    """Parallel-serial-identity: re-run a sampled subset in the parent.

    Re-executes the first and last profiled task in-process and compares
    both the run summary and the profile bit-for-bit against what the
    worker shipped home.  Appends the result to ``audit_report``.
    """
    from repro.core.audit import InvariantCheck

    by_index = {t.index: t for t in tasks}
    sample = [tasks[0].index, tasks[-1].index] if len(tasks) > 1 else [tasks[0].index]
    checked = 0
    failures = 0
    detail = ""
    for idx in dict.fromkeys(sample):
        out = outputs.get(idx)
        if out is None:
            continue
        redo = _run_task(by_index[idx], keep_objects=True)
        checked += 1
        same = (
            redo.run == out.run
            and redo.failure == out.failure
            and redo.profile_data() == out.profile_data()
        )
        if not same:
            failures += 1
            if not detail:
                detail = (
                    f"run {idx} (seed {out.seed}) differs between the worker "
                    f"and an in-parent re-execution"
                )
    audit_report.add(InvariantCheck(
        name="parallel-serial-identity",
        passed=failures == 0,
        checked=checked,
        failures=failures,
        detail=detail,
    ))


@dataclass
class RunBatch:
    """A contiguous slice of a session's tasks shipped as one IPC unit.

    The pool's unit of dispatch and retry: one future per batch.  On a
    worker failure a multi-run batch is split chunk-token style — halved
    and resubmitted — so one poisoned run cannot keep sinking its
    siblings; a failed singleton runs in the parent.
    """

    bid: int
    tasks: List[RunTask]


class _PoolSession:
    """Mutable state of one parallel session: pool, batches, outputs."""

    def __init__(
        self,
        tasks: List[RunTask],
        jobs: int,
        pool: ProcessPoolExecutor,
        batch_size: int,
        deadline_monotonic: Optional[float],
        on_output: Optional[Callable[[RunTask, RunOutput], None]],
    ) -> None:
        self.jobs = jobs
        #: ``None`` once the pool is gone: every remaining run executes in
        #: the parent
        self.pool: Optional[ProcessPoolExecutor] = pool
        self.deadline_monotonic = deadline_monotonic
        self.on_output = on_output
        #: one future per live batch, keyed by batch id
        self.futures: Dict[int, concurrent.futures.Future] = {}
        self.attempts: Dict[int, int] = {t.index: 0 for t in tasks}
        self.outputs: Dict[int, RunOutput] = {}
        self.rebuilds = 0
        self._by_index = {t.index: t for t in tasks}
        self._next_bid = 0
        self.batches: Dict[int, RunBatch] = {}
        self._task_batch: Dict[int, int] = {}
        for i in range(0, len(tasks), max(1, batch_size)):
            self._new_batch(tasks[i:i + batch_size])
        #: submit-side task forms: snapshots swapped for refs/byte wrappers
        self._wired: Dict[int, RunTask] = {}
        try:
            self._fork_workers = multiprocessing.get_start_method() == "fork"
        except Exception:  # pragma: no cover - exotic platforms
            self._fork_workers = False

    def _new_batch(self, tasks: List[RunTask]) -> RunBatch:
        batch = RunBatch(bid=self._next_bid, tasks=tasks)
        self._next_bid += 1
        self.batches[batch.bid] = batch
        for t in tasks:
            self._task_batch[t.index] = batch.bid
        return batch

    def batch_of(self, index: int) -> RunBatch:
        return self.batches[self._task_batch[index]]

    def replace_batch(
        self, batch: RunBatch, groups: List[List[RunTask]]
    ) -> List[RunBatch]:
        """Retire ``batch`` and re-cover its unfinished tasks with ``groups``."""
        self.batches.pop(batch.bid, None)
        self.futures.pop(batch.bid, None)
        return [self._new_batch(g) for g in groups if g]

    def _wire_task(self, task: RunTask) -> RunTask:
        """The submit-side form of a task: never ships a live snapshot.

        Fork-started workers inherit the parent's in-memory checkpoint
        cache, so a snapshot that is in it travels as a zero-payload
        :class:`~repro.harness.checkpoint.SnapshotRef`; otherwise it is
        pre-encoded once into a byte wrapper that every resubmission
        reuses.  Cached per task for the session's lifetime.
        """
        wired = self._wired.get(task.index)
        if wired is not None:
            return wired
        snap = task.snapshot
        from repro.harness.checkpoint import (
            SnapshotRef,
            SnapshotWire,
            snapshot_in_memory,
        )
        from repro.sim.snapshot import EngineSnapshot

        if snap is None or not isinstance(snap, EngineSnapshot):
            wired = task
        elif (
            self._fork_workers
            and task.checkpoint_key is not None
            and snapshot_in_memory(task.checkpoint_key, task.seed)
        ):
            wired = replace(
                task, snapshot=SnapshotRef(task.checkpoint_key, task.seed)
            )
        else:
            wired = replace(
                task,
                snapshot=SnapshotWire.from_snapshot(
                    snap, key=task.checkpoint_key, seed=task.seed
                ),
            )
        self._wired[task.index] = wired
        return wired

    def submit(self, batch: RunBatch) -> None:
        self.futures[batch.bid] = self.pool.submit(
            _run_batch_in_worker,
            [self._wire_task(t) for t in batch.tasks],
            [self.attempts[t.index] for t in batch.tasks],
            self.deadline_monotonic,
        )

    def submit_unfinished(self) -> None:
        for bid in sorted(self.batches):
            batch = self.batches[bid]
            if bid in self.futures:
                continue
            if any(t.index not in self.outputs for t in batch.tasks):
                self.submit(batch)

    def finish(self, task: RunTask, out: RunOutput) -> None:
        """Record a task's final output; the one place ``on_output`` fires."""
        if task.index in self.outputs:
            return
        self.outputs[task.index] = out
        if self.on_output is not None:
            self.on_output(task, out)

    def run_in_parent(self, task: RunTask, err: Optional[Exception] = None) -> None:
        if err is not None:
            _warn(
                f"run {task.index} (seed {task.seed}) failed in worker "
                f"({type(err).__name__}: {err}); retrying in parent"
            )
        if task.index not in self.outputs:
            self.finish(task, _run_task(task, keep_objects=True))

    def harvest_done(self) -> None:
        """Finish every output of an already-completed future."""
        for fut in self.futures.values():
            if not fut.done():
                continue
            try:
                outs = fut.result(timeout=0)
            except (KeyboardInterrupt, SystemExit):
                raise
            except (_FutureCancelled, Exception):
                continue  # it failed; its tasks are handled elsewhere
            for out in outs:
                self.finish(self._by_index[out.index], out)

    def teardown(self, harvest: bool = True) -> None:
        """Terminate the pool now, hung workers included, after harvesting
        what already finished; the remaining runs go to the parent."""
        if self.pool is None:
            return
        if harvest:
            self.harvest_done()
        _terminate_pool(self.pool)
        self.pool = None
        self.futures.clear()

    def rebuild_pool(self, exc: BaseException) -> None:
        """Replace a broken pool, at most :data:`_POOL_REBUILDS` times."""
        self.teardown()
        if self.rebuilds >= _POOL_REBUILDS:
            _warn(
                f"process pool broke again ({type(exc).__name__}); running "
                f"the remaining runs in the parent"
            )
            return
        self.rebuilds += 1
        try:
            self.pool = ProcessPoolExecutor(max_workers=self.jobs)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as err:
            _warn(f"could not rebuild process pool ({err!r})")
            return
        self.submit_unfinished()

    def fail(self, batch: RunBatch, pending: List[RunTask], exc: BaseException) -> None:
        """The one failure path: halve a failed unit and resubmit it, or run
        a failed singleton in the parent.  A broken pool fails every
        outstanding future, so it is also rebuilt (bounded) and all
        unfinished work resubmitted."""
        broken = isinstance(exc, (BrokenProcessPool, _FutureCancelled))
        # a broken pool fails every run in flight, not only this unit's:
        # resubmitting the others at their old attempt would re-fire a
        # first-attempt worker fault and break the rebuilt pool too
        for index in self.attempts if broken else [t.index for t in pending]:
            if index not in self.outputs:
                self.attempts[index] += 1
        if len(pending) > 1:
            _warn(
                f"a batch of {len(pending)} runs failed in a worker "
                f"({type(exc).__name__}: {exc}); splitting it and retrying"
            )
            mid = (len(pending) + 1) // 2
            units = self.replace_batch(batch, [pending[:mid], pending[mid:]])
            orphan = None
        else:
            units = self.replace_batch(batch, [])
            orphan = pending[0]
        if broken:
            self.rebuild_pool(exc)
        else:
            for unit in units:
                self.submit(unit)
        if orphan is not None:
            self.run_in_parent(orphan, WorkerCrashError(
                f"worker failed ({type(exc).__name__}: {exc})", cause=exc,
            ))


def execute_tasks(
    tasks: List[RunTask],
    jobs: int = 1,
    audit_report=None,
    on_output: Optional[Callable[[RunTask, RunOutput], None]] = None,
    deadline_monotonic: Optional[float] = None,
    batch_runs: Optional[int] = None,
) -> List[RunOutput]:
    """Run every task, parallel when asked and possible, serial otherwise.

    Outputs come back in task order regardless of completion order.
    Tasks ship to the pool in :class:`RunBatch` groups of ``batch_runs``
    (auto-sized from the run count and ``jobs`` when ``None``) so one IPC
    round trip amortizes over several runs.  A failed unit is halved and
    resubmitted, a failed singleton runs in the parent, and a broken pool
    is rebuilt once before the remaining runs move to the parent.  Waits
    are bounded by the :class:`Watchdog` deadline; the first hang
    terminates the pool's processes (hung workers cannot be cancelled) and
    the remaining tasks run in the parent.  A pool that cannot start, or
    tasks that do not pickle, degrade the whole batch to serial with a
    warning.

    ``deadline_monotonic`` (a ``time.monotonic()`` timestamp) bounds the
    whole batch: once it passes, no further task starts, in-flight waits
    are clamped to the remaining time, the pool is torn down, and the
    completed prefix is returned — so the returned list may be *shorter*
    than ``tasks``.  The profiling service uses this to propagate a job's
    deadline into the executor's watchdog.  Without a deadline every task
    produces an output.

    ``on_output`` is invoked once per task with its final output, as soon
    as that output is known — the journal hook.  With an ``audit_report``
    (an :class:`~repro.core.audit.AuditReport`), a sampled subset of worker
    runs is re-executed in the parent and checked for bit-identity.
    """
    jobs = resolve_jobs(jobs, len(tasks))

    def deadline_passed() -> bool:
        return deadline_monotonic is not None and time.monotonic() >= deadline_monotonic

    if jobs <= 1 or len(tasks) <= 1:
        return _run_serial(tasks, on_output, deadline_monotonic)

    if not all(_picklable(t) for t in tasks):
        _warn(
            "profiling tasks are not picklable (closure-based program factory "
            "not in the app registry); running serially"
        )
        return _run_serial(tasks, on_output, deadline_monotonic)

    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # no fork support, no semaphores, ...
        _warn(f"could not start process pool ({exc!r}); running serially")
        return _run_serial(tasks, on_output, deadline_monotonic)

    if batch_runs is not None and batch_runs >= 1:
        batch_size = batch_runs
    else:
        batch_size = auto_batch_size(len(tasks), jobs)
    session = _PoolSession(
        tasks, jobs, pool, batch_size, deadline_monotonic, on_output
    )
    watchdog = Watchdog()

    try:
        session.submit_unfinished()
        for task in tasks:
            while task.index not in session.outputs:
                if deadline_passed():
                    # keep what finished, reclaim the workers, and hand
                    # the partial batch back
                    session.teardown()
                    break
                if session.pool is None:
                    session.run_in_parent(task)
                    break
                batch = session.batch_of(task.index)
                if batch.bid not in session.futures:
                    session.submit(batch)
                pending = [
                    t for t in batch.tasks if t.index not in session.outputs
                ]
                wait_s = watchdog.deadline_for(len(pending))
                if deadline_monotonic is not None:
                    wait_s = min(wait_s, deadline_monotonic - time.monotonic())
                try:
                    outs = session.futures[batch.bid].result(timeout=wait_s)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except (_FutureTimeout, TimeoutError):
                    if deadline_passed():
                        continue  # clamped to the deadline: expiry, not a hang
                    session.teardown()
                    session.run_in_parent(task, WorkerHungError(
                        f"worker exceeded its {wait_s:.1f}s deadline",
                        deadline_s=wait_s,
                    ))
                except (_FutureCancelled, Exception) as exc:
                    session.fail(batch, pending, exc)
                else:
                    session.futures.pop(batch.bid, None)
                    got = {o.index: o for o in outs}
                    for t in pending:
                        out = got.get(t.index)
                        if out is not None:
                            if not out.failed:
                                watchdog.observe(out.wall_s)
                            session.finish(t, out)
                    missing = [t for t in pending if t.index not in got]
                    if missing and not deadline_passed():
                        # the worker returned early with time still on the
                        # clock: a failed unit like any other
                        session.fail(batch, missing, RuntimeError(
                            f"worker returned {len(got)}/{len(pending)} "
                            f"batch runs before the session deadline"
                        ))
            if deadline_passed() and task.index not in session.outputs:
                break
    except (KeyboardInterrupt, SystemExit):
        # never swallow an interrupt — reclaim the workers and re-raise;
        # journaled records are already fsync'd, so the session is resumable
        session.teardown(harvest=False)
        raise
    finally:
        if session.pool is not None:
            session.pool.shutdown(wait=True, cancel_futures=True)
    if audit_report is not None:
        _audit_identity(tasks, session.outputs, audit_report)
    return [session.outputs[t.index] for t in tasks if t.index in session.outputs]
