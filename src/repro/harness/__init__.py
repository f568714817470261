"""Evaluation harness: profiling runs, before/after comparisons, overhead
breakdowns, and prediction-accuracy studies — the machinery behind every
table and figure in the paper's evaluation (§4).

Multi-run sessions share the process-parallel executor in
:mod:`repro.harness.parallel`: pass ``jobs=N`` (or ``jobs=0`` for
cpu-count-aware auto sizing) to fan independent runs out over worker
processes with results bit-identical to serial execution."""

from repro.harness.comparison import compare_app, compare_builds, measure_runtimes
from repro.harness.journal import JournalError, JournalRecord, SessionJournal
from repro.harness.overhead import OverheadBreakdown, measure_overhead
from repro.harness.parallel import (
    AUTO_JOBS,
    ParallelExecutionWarning,
    RunOutput,
    RunTask,
    execute_tasks,
    resolve_jobs,
)
from repro.harness.request import ExecutionConfig, ResilienceConfig
from repro.harness.runner import (
    ProfileOutcome,
    ProfileRequest,
    profile_app,
    profile_program,
    run_profile_session,
    session_fingerprint,
)

__all__ = [
    "AUTO_JOBS",
    "ExecutionConfig",
    "JournalError",
    "JournalRecord",
    "OverheadBreakdown",
    "ParallelExecutionWarning",
    "ProfileOutcome",
    "ProfileRequest",
    "ResilienceConfig",
    "RunOutput",
    "RunTask",
    "SessionJournal",
    "compare_app",
    "compare_builds",
    "execute_tasks",
    "measure_overhead",
    "measure_runtimes",
    "profile_app",
    "profile_program",
    "resolve_jobs",
    "run_profile_session",
    "session_fingerprint",
]
