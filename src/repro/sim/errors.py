"""Exception hierarchy for the execution simulator and the run harness.

Two families share the :class:`SimulationError` root:

* **sim-level** errors describe what went wrong *inside* a virtual
  execution: sync-primitive misuse (:class:`SyncError`), a wedged schedule
  (:class:`DeadlockError`, :class:`StuckLockError`), or an injected fault
  (:class:`ThreadCrashFault`, see :mod:`repro.sim.faults`).  These are
  deterministic — the same program and seed reproduce them exactly — so the
  harness records them as failed-run entries instead of retrying.

* **harness-level** errors (:class:`RunFaultedError` and its
  :class:`WorkerCrashError` / :class:`WorkerHungError` subclasses) describe
  what went wrong with the *process* executing a run: a worker died, hung
  past its watchdog deadline, or a run ended in a recorded fault.  Worker
  failures are environmental and therefore retryable: the executor
  (:mod:`repro.harness.parallel`) splits the failed batch and runs a
  failed single run in the parent.

Sim-level errors carry ``virtual_ns`` — the virtual timestamp at which the
run stopped making progress — so failure records can say how far a run got.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class SimulationError(Exception):
    """Base class for all simulator errors.

    ``virtual_ns`` is the virtual time at which the error was raised (0
    when unknown or not applicable).
    """

    def __init__(self, message: str, virtual_ns: int = 0) -> None:
        super().__init__(message)
        self.virtual_ns = virtual_ns


class SyncError(SimulationError):
    """Misuse of a synchronization primitive.

    Raised for, e.g., unlocking a mutex the thread does not own or waiting on
    a condition variable without holding its mutex.
    """


#: one blocked thread's diagnostics: (name, what it is blocked on, callchain)
BlockedThread = Tuple[str, Optional[str], Tuple]


def _format_blocked(blocked: Sequence[BlockedThread]) -> str:
    if not blocked:
        return "none"
    rows = []
    for name, what, chain in blocked:
        chain_s = " <- ".join(str(line) for line in chain) if chain else "?"
        rows.append(f"{name} on {what} at {chain_s}")
    return "; ".join(rows)


class DeadlockError(SimulationError):
    """The simulation cannot make progress.

    Raised when no thread is runnable, no timer is pending, and at least one
    thread is still blocked.  Carries the virtual timestamp (``virtual_ns``)
    and each blocked thread's full callchain (``blocked``), so test failures
    and recorded failure entries are self-diagnosing.
    """

    def __init__(
        self,
        message: Optional[str] = None,
        virtual_ns: int = 0,
        blocked: Sequence[BlockedThread] = (),
    ) -> None:
        self.blocked: List[BlockedThread] = list(blocked)
        if message is None:
            message = (
                f"no runnable threads at t={virtual_ns}; "
                f"blocked: {_format_blocked(self.blocked)}"
            )
        super().__init__(message, virtual_ns=virtual_ns)


class ThreadCrashFault(SimulationError):
    """An injected fault aborted a thread mid-activity.

    Only raised by the fault-injection layer (:mod:`repro.sim.faults`);
    deterministic for a given :class:`~repro.sim.faults.FaultPlan` and run
    seed, so it is recorded as a failed run rather than retried.
    """

    def __init__(self, thread_name: str, virtual_ns: int) -> None:
        super().__init__(
            f"injected crash of thread {thread_name!r} at t={virtual_ns}",
            virtual_ns=virtual_ns,
        )
        self.thread_name = thread_name


class StuckLockError(SimulationError):
    """A stalled lock-holder wedged the schedule (livelock).

    Raised by the fault layer's in-sim stall detector when an injected
    stuck thread is still grinding ``detect_ns`` after the stall began,
    with every blocked peer's callchain attached — the diagnostics GAPP
    produces for serialization stalls, on the simulator.
    """

    def __init__(
        self,
        holder: str,
        virtual_ns: int,
        blocked: Sequence[BlockedThread] = (),
    ) -> None:
        self.holder = holder
        self.blocked: List[BlockedThread] = list(blocked)
        super().__init__(
            f"thread {holder!r} stuck on-CPU at t={virtual_ns} "
            f"(injected stall); blocked: {_format_blocked(self.blocked)}",
            virtual_ns=virtual_ns,
        )


class RunFaultedError(SimulationError):
    """A profiling run could not produce a result.

    Base of the harness-level taxonomy; ``error_type`` names the concrete
    failure class for failure records and reports.
    """

    @property
    def error_type(self) -> str:
        return type(self).__name__


class WorkerCrashError(RunFaultedError):
    """A worker process died or raised while executing a run.

    Environmental (pool breakage, a ``SIGKILL``-ed worker, an exception
    that only reproduces worker-side), hence retryable: the executor halves
    a failed batch and resubmits it, and runs a failed single run in the
    parent.
    """

    def __init__(self, message: str, cause: Optional[BaseException] = None) -> None:
        super().__init__(message)
        self.cause = cause


class WorkerHungError(RunFaultedError):
    """A worker exceeded its watchdog deadline.

    The deadline is the executor's running-median-derived watchdog bound.
    Hung workers cannot be cancelled, so raising this also terminates the
    pool's processes.
    """

    def __init__(self, message: str, deadline_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.deadline_s = deadline_s


class ServiceError(RunFaultedError):
    """Base of the profiling-service taxonomy (:mod:`repro.harness.service`).

    Service errors describe why the *daemon* could not (or would not) run a
    job: admission control shed it, its deadline passed, or the service is
    shutting down.  They are per-request outcomes, never session-fatal — a
    shed request degrades that tenant's request, not the daemon.
    """


class ServiceOverloadError(ServiceError):
    """A request was shed by admission control.

    ``reason`` names the control that fired — ``"queue-depth"`` (the
    tenant's pending-job quota is full), ``"rate-limit"`` (the tenant's
    token bucket is empty), or ``"circuit-breaker"`` (the tenant's recent
    jobs kept failing and the breaker is open).  Shedding is always
    per-tenant: one tenant's chaos never sheds another's requests.
    """

    def __init__(self, message: str, tenant: str = "", reason: str = "") -> None:
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason


class DeadlineExceededError(ServiceError):
    """A job's deadline passed before it could finish.

    Raised when a queued job expires before a worker picks it up, and
    recorded when a running session is stopped at its deadline (the session
    journal keeps every completed run, so resubmitting the same request
    resumes where the deadline cut it off).
    """

    def __init__(self, message: str, deadline_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.deadline_s = deadline_s
