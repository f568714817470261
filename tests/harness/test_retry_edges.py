"""Service breaker heal cycle and fatal-signal propagation.

The service's worker loop treats tenant-level failure streaks with a
breaker that heals via a probe, and operator signals (``KeyboardInterrupt``
/ ``SystemExit``) are *never* treated as retryable work — they stop the
world.
"""

import socket as socket_mod
import threading

import pytest

from repro.harness.service import (
    CircuitBreaker,
    Job,
    JobSpec,
    ServiceConfig,
    ServiceDaemon,
    TenantPolicy,
)

needs_unix_sockets = pytest.mark.skipif(
    not hasattr(socket_mod, "AF_UNIX"),
    reason="no AF_UNIX sockets on this platform",
)


# -- breaker heal cycle -------------------------------------------------------


def test_breaker_full_heal_cycle_with_fake_clock():
    t = [0.0]
    breaker = CircuitBreaker(threshold=2, cooldown_s=5.0, clock=lambda: t[0])
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "open"
    t[0] = 4.9
    assert not breaker.allow()
    t[0] = 5.0
    assert breaker.allow() and breaker.state == "half-open"
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.consecutive_failures == 0
    # a fresh failure streak is needed to re-open
    breaker.record_failure()
    assert breaker.state == "closed"


# -- fatal-signal propagation from the service worker loop --------------------


def _idle_daemon(tmp_path) -> ServiceDaemon:
    """A daemon with no threads and no socket: the worker loop is driven
    directly by the test, so nothing races it for the queued job."""
    return ServiceDaemon(ServiceConfig(
        state_dir=str(tmp_path / "state"),
        workers=1,
        policy=TenantPolicy(rate_per_s=1000.0, burst=1000),
    ))


def _queued_job(daemon: ServiceDaemon) -> Job:
    spec = JobSpec(tenant="t", app="example", runs=1)
    job = Job(job_id="j0001-test", fingerprint="f" * 64, spec=spec,
              tenants=["t"], submitted_monotonic=0.0)
    daemon.admission.tenant("t").active = 1
    daemon.queue.put(job)
    return job


@needs_unix_sockets
@pytest.mark.parametrize("signal_exc", [KeyboardInterrupt, SystemExit])
def test_fatal_signals_propagate_from_worker_loop(tmp_path, signal_exc):
    daemon = _idle_daemon(tmp_path)
    job = _queued_job(daemon)
    daemon._run_session = lambda j: (_ for _ in ()).throw(signal_exc())
    with pytest.raises(signal_exc):
        daemon._worker_loop(0)
    # the job was marked failed before the signal re-raised, the worker
    # recorded itself dead, and the daemon is stopping
    assert job.state == "failed"
    assert job.error == {"error": "Interrupted", "message": "daemon stopping"}
    assert daemon._dead[0]
    assert daemon._stop.is_set()
    assert isinstance(daemon._fatal, signal_exc)
    # run_forever re-raises the worker's fatal signal in the main thread
    daemon._threads = []
    with pytest.raises(signal_exc):
        daemon.run_forever()
    daemon.stop()


@needs_unix_sockets
def test_ordinary_exceptions_fail_the_job_but_not_the_daemon(tmp_path):
    daemon = _idle_daemon(tmp_path)
    job = _queued_job(daemon)

    def boom(j):
        raise RuntimeError("session blew up")

    daemon._run_session = boom
    # drive one take/execute cycle, then stop the loop cleanly
    worker = threading.Thread(target=daemon._worker_loop, args=(0,))
    worker.start()
    assert job.done_event.wait(timeout=10.0)
    daemon._stop.set()
    daemon.queue.close()
    worker.join(timeout=10.0)
    assert not worker.is_alive()
    assert job.state == "failed"
    assert job.error["error"] == "RuntimeError"
    assert daemon._fatal is None and not daemon._dead[0]
    # the failure fed the tenant's breaker
    assert daemon.admission.tenant("t").breaker.consecutive_failures == 1
    daemon.stop()
