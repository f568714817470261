"""Profiling-as-a-service: a long-running multi-tenant session daemon.

Every CLI invocation of this reproduction is a cold island; the service
turns the existing robustness machinery — canonical session fingerprints
(:mod:`repro.harness.journal`), the shared :class:`~repro.harness.
checkpoint.CheckpointStore`, the split-on-failure executor
(:mod:`repro.harness.parallel`) — into a daemon that serves N concurrent
profiling sessions over one shared cache:

* :mod:`~repro.harness.service.wire` — the request surface
  (:class:`JobSpec`) and the newline-delimited JSON protocol spoken over a
  Unix domain socket;
* :mod:`~repro.harness.service.tenants` — per-tenant admission control:
  queue-depth quotas, token-bucket rate limits, and a circuit breaker that
  quarantines a tenant whose jobs keep failing;
* :mod:`~repro.harness.service.jobs` — the job model and the thread-safe
  queue, with in-flight dedup by session fingerprint;
* :mod:`~repro.harness.service.results` — the content-addressed result
  store (completed sessions served from cache, bit-identically);
* :mod:`~repro.harness.service.daemon` — the daemon itself: bounded worker
  pool, crash-safe queue journal, restart recovery by session-journal
  replay, and the ``/healthz``-style status surface;
* :mod:`~repro.harness.service.client` — the thin socket client behind
  ``repro submit`` / ``repro status``.
"""

from repro.harness.service.client import ServiceClient, ServiceUnavailableError
from repro.harness.service.daemon import ServiceConfig, ServiceDaemon
from repro.harness.service.jobs import Job, JobQueue
from repro.harness.service.results import ResultStore
from repro.harness.service.tenants import (
    AdmissionController,
    CircuitBreaker,
    TenantPolicy,
    TenantState,
    TokenBucket,
)
from repro.harness.service.wire import (
    WIRE_VERSION,
    JobSpec,
    WireError,
    job_fingerprint,
)

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "Job",
    "JobQueue",
    "JobSpec",
    "ResultStore",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDaemon",
    "ServiceUnavailableError",
    "TenantPolicy",
    "TenantState",
    "TokenBucket",
    "WIRE_VERSION",
    "WireError",
    "job_fingerprint",
]
