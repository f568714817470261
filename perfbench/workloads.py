"""The three workloads: how users run the profiler.

* ``cold-profile`` — one caller, serial cold sqlite sessions with the
  default execution config (checkpointing on, in-memory store) and the
  checkpoint memory cleared before each, as every fresh ``repro profile``
  process pays.
* ``warm-parallel`` — one caller re-running ferret sessions at ``jobs=2``
  against a checkpoint cache populated in set-up.
* ``service-mix`` — the daemon as its own process (``repro serve``) and
  two closed-loop clients mixing new jobs (writes) with resubmits of
  completed ones (reads served from the result store).

Each op is followed by reads of stored results ("hits"): on the CLI
workloads, ``run_profile_session`` resuming a completed session journal
(the ``repro profile --resume`` path, no engine run); on service-mix, a
resubmit the daemon answers from its ``ResultStore``.

The program sees only session specs and base seeds; both come from the
benchmark seed.  Every op's merged ``ProfileData`` is audited, and every
repeat of a spec must reproduce its first result byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from measure import (
    HIT_TAIL_CAP,
    OP_TAIL_CAP,
    OpRecord,
    count_outcomes,
    layer_self_times,
    ok_latencies,
    summarize_latencies,
)

#: what a fresh ``repro`` process imports before its first session
IMPORT_PROBE = "import repro, repro.harness.checkpoint, repro.harness.service"

#: simulated statistics are recorded for this many first ops per client
SIM_PREFIX_OPS = 8

#: the shrunk sqlite run lasts ~30 ms of virtual time (25 ms of it
#: profiler start-up), too short for the default 50 ms experiments
SQLITE_EXPERIMENT_MS = 5.0

#: warm-parallel specs; working set = specs x runs <= 64 LRU entries
WORKING_SET = 2

SERVICE_APP = "swaptions"
SERVICE_RUNS = 1

#: the traced run alternates untraced (U) and traced (T) slices as
#: U T T U: a drift that is linear in time cancels out of the overhead
TRACE_SLICES = (False, True, True, False)


@dataclass(frozen=True)
class Sizing:
    """Input sizes; chosen so a 25 s run holds at least 40 ops and 40
    hits, enough for a p75 tail.  The smoke tests shrink them."""

    sqlite_inserts: int = 200
    sqlite_runs: int = 2
    #: runs of the cold-profile session its hits resume
    hit_session_runs: int = 8
    ferret_queries: int = 600
    ferret_runs: int = 4
    setup_reps: int = 3
    warmup_ops: int = 2
    #: seeds of the traced run's side measurements
    side_seeds: int = 3


# ----------------------------------------------------------------- helpers


def host_record() -> Dict[str, Any]:
    import numpy

    from repro.sim.backend import accel_available, default_columnar, resolve_backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "backend": resolve_backend(),
        "pipeline": "columnar" if default_columnar() else "scalar",
        "numpy": numpy.__version__,
        "accel_built": accel_available(),
        "python": sys.version.split()[0],
    }


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and any waited-for
    descendant (pool workers, the daemon); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def time_import() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True)
    return time.perf_counter() - t0


def check_profile(data, ref_json: Optional[str] = None) -> Tuple[Optional[str], str]:
    """(failure reason or None, canonical JSON) for one merged profile."""
    from repro.core.audit import audit_profile_data

    text = data.to_json()
    if data.degraded or not audit_profile_data(data).passed:
        return "check", text
    if ref_json is not None and text != ref_json:
        return "check", text
    return None, text


def sim_stats(runs: List[Tuple[int, int, int]], experiments: int, text: str) -> dict:
    return {
        "virtual_ns": sum(r[0] for r in runs),
        "events": sum(r[1] for r in runs),
        "samples": sum(r[2] for r in runs),
        "experiments": experiments,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def outcome_stats(outcome, text: str) -> dict:
    runs = [(r.runtime_ns, r.events_processed, r.sample_count) for r in outcome.run_results]
    return sim_stats(runs, outcome.experiment_count, text)


def fold_stats(stats: List[dict]) -> dict:
    total = {k: sum(s[k] for s in stats) for k in ("virtual_ns", "events", "samples", "experiments")}
    digest = hashlib.sha256("".join(s["sha256"] for s in stats).encode()).hexdigest()
    return {"ops": len(stats), **total, "sha256": digest}


class SeedPlan:
    """Distinct base seeds, ``stride`` apart so no two sessions share a
    per-run seed (``base_seed + run index``)."""

    def __init__(self, rng: random.Random, stride: int = 100) -> None:
        self.next = rng.randrange(1 << 20) * 1000
        self.stride = stride

    def take(self) -> int:
        base = self.next
        self.next += self.stride
        return base


# -------------------------------------------------------------- workloads


class Workload:
    """Set-up, a closed-loop op step per client, and teardown."""

    name = ""
    clients = 1
    hit_name = "resume of a completed session journal"

    def __init__(self, seed: int, sizing: Sizing, work_dir: str) -> None:
        self.seed = seed
        self.sizing = sizing
        self.work_dir = work_dir
        self.rngs = [random.Random(f"{self.name}:{seed}:{c}") for c in range(self.clients)]
        self.sim: List[List[dict]] = [[] for _ in range(self.clients)]
        self.tracer = None

    def setup(self, rep: int) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def step(self, client: int) -> List[OpRecord]:
        raise NotImplementedError

    def side_spec(self):
        """(AppSpec, CozConfig) of the workload's runs, for side measurements."""
        raise NotImplementedError

    def start(self, deadline: float) -> None:
        self.deadline = deadline

    def keep_going(self) -> bool:
        return time.perf_counter() < self.deadline

    def abort(self) -> None:
        """Release clients blocked on each other after one has failed."""

    def switch_trace(self, on: bool) -> None:
        """Install (on) or remove the span wrappers in every process the
        ops run in; pool workers forked later inherit the choice."""
        from spans import install, uninstall

        if on:
            install(self.tracer)
        else:
            uninstall()

    def layer_extras(self, records: List[OpRecord]) -> Dict[str, float]:
        """Layer metrics observed by the clients (none off the service)."""
        return dict.fromkeys(
            ("service.admit_s", "service.queue_wait_s", "service.hit_ratio", "service.shed"),
            0.0,
        )

    def note_sim(self, client: int, stats: dict) -> None:
        if len(self.sim[client]) < SIM_PREFIX_OPS:
            self.sim[client].append(stats)

    def _set_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op_id = (self.tracer.op_id or 0) + 1


class _Session(Workload):
    """The CLI workloads: ``run_profile_session`` in the benchmark process."""

    jobs = 1

    def session(self, spec, request):
        from repro.harness import runner

        # looked up per call so the traced run's wrapper is the one called
        return runner.run_profile_session(spec, request)

    def request(self, base: int, runs=None, journal=None, resume=None):
        from repro import ExecutionConfig, ProfileRequest, ResilienceConfig

        return ProfileRequest(
            runs=runs or self.runs,
            base_seed=base,
            coz_config=self.cfg,
            execution=ExecutionConfig(jobs=self.jobs),
            resilience=ResilienceConfig(journal=journal, resume=resume),
        )

    def timed(self, kind: str, fn, ref_json: Optional[str]) -> Tuple[OpRecord, Any]:
        self._set_op()
        t0 = time.perf_counter()
        try:
            outcome = fn()
        except Exception as exc:  # an op that raises is a failed op
            print(f"{self.name}: {kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return OpRecord(kind, time.perf_counter() - t0, False, "error"), None
        latency = time.perf_counter() - t0
        failure, text = check_profile(outcome.data, ref_json)
        return OpRecord(kind, latency, failure is None, failure), (outcome, text)

    def hit(self, client: int) -> OpRecord:
        # always the first stored session: hits of unequal cost would
        # make the median jump between them with the seed's draw
        base, runs, path, ref = self.stored[0]
        rec, _ = self.timed(
            "hit", lambda: self.session(self.spec, self.request(base, runs, resume=path)), ref
        )
        return rec

    def populate(self, count: int, runs=None) -> None:
        """``count`` journaled cold sessions: the stored results that
        hits resume and warm ops must reproduce.  Their seeds are fixed,
        not drawn from the benchmark seed, so every run stores the same
        work."""
        from repro.harness.checkpoint import clear_memory_cache

        seeds = SeedPlan(random.Random(f"{self.name}:stored"))
        self.stored = []
        clear_memory_cache()
        for idx in range(count):
            base = seeds.take()
            path = os.path.join(self.work_dir, f"journal-{idx}.jsonl")
            outcome = self.session(self.spec, self.request(base, runs, journal=path))
            failure, text = check_profile(outcome.data)
            if failure is not None:
                raise RuntimeError(f"{self.name}: stored session {base} failed its checks")
            self.stored.append((base, runs, path, text))

    def teardown(self) -> None:
        from repro.harness.checkpoint import clear_memory_cache

        clear_memory_cache()
        for _, _, path, _ in getattr(self, "stored", []):
            if os.path.exists(path):
                os.unlink(path)
        self.stored = []

    def side_spec(self):
        return self.spec, self.cfg


class ColdProfile(_Session):
    name = "cold-profile"

    def setup(self, rep: int) -> None:
        from repro import MS, CozConfig
        from repro.apps import registry

        s = self.sizing
        registry.clear_spec_cache()
        self.runs = s.sqlite_runs
        self.spec = registry.build("sqlite", inserts_per_thread=s.sqlite_inserts)
        self.cfg = CozConfig(
            scope=self.spec.scope,
            experiment_duration_ns=MS(SQLITE_EXPERIMENT_MS),
        )
        # the warm-up op is the journaled session hits resume, at the CLI's
        # default size: a 1 ms hit would be timer and allocator noise
        self.populate(1, runs=s.hit_session_runs)
        self.plan = SeedPlan(self.rngs[0])

    def step(self, client: int) -> List[OpRecord]:
        from repro.harness.checkpoint import clear_memory_cache

        clear_memory_cache()
        base = self.plan.take()
        rec, got = self.timed(
            "op", lambda: self.session(self.spec, self.request(base)), None
        )
        if got is not None:
            self.note_sim(client, outcome_stats(*got))
        return [rec, self.hit(client)]


class WarmParallel(_Session):
    name = "warm-parallel"
    jobs = 2

    def setup(self, rep: int) -> None:
        from repro.apps import registry

        s = self.sizing
        registry.clear_spec_cache()
        self.runs = s.ferret_runs
        self.spec = registry.build("ferret", n_queries=s.ferret_queries)
        self.cfg = None
        # one serial cold session per spec records its snapshots; its
        # result is the reference every parallel resumed repeat must match
        jobs, self.jobs = self.jobs, 1
        try:
            self.populate(WORKING_SET)
        finally:
            self.jobs = jobs
        warm_rng = random.Random(f"{self.name}:warmup")
        for _ in range(s.warmup_ops):
            rec = self.op_on(warm_rng.randrange(len(self.stored)))[0]
            if not rec.ok:
                raise RuntimeError(f"{self.name}: warm-up session failed its checks")

    def op_on(self, idx: int):
        base, _, _, ref = self.stored[idx]
        return self.timed(
            "op", lambda: self.session(self.spec, self.request(base)), ref
        )

    def step(self, client: int) -> List[OpRecord]:
        rec, got = self.op_on(self.rngs[client].randrange(len(self.stored)))
        if got is not None:
            self.note_sim(client, outcome_stats(*got))
        return [rec, self.hit(client)]


class ServiceMix(Workload):
    name = "service-mix"
    clients = 2
    hit_name = "resubmit served from the daemon's ResultStore"

    def __init__(self, seed: int, sizing: Sizing, work_dir: str) -> None:
        super().__init__(seed, sizing, work_dir)
        self.proc: Optional[subprocess.Popen] = None
        self.status: Dict[str, Any] = {}

    # the socket path is relative (AF_UNIX paths are capped near 100
    # bytes); the daemon and the clients share this process's cwd
    def _paths(self, rep: int) -> Tuple[str, str]:
        state = os.path.join(self.work_dir, f"daemon-{rep}")
        return state, os.path.relpath(os.path.join(state, "s.sock"))

    def setup(self, rep: int) -> None:
        from repro.harness.service import ServiceClient

        state, sock = self._paths(rep)
        serve_args = ["--state-dir", state, "--socket", sock, "--workers", str(self.clients)]
        if self.tracer is not None:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, os.path.join(here, "serve.py"), self.tracer.dir, *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
        self.log = open(os.path.join(self.work_dir, f"daemon-{rep}.log"), "w")
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=subprocess.STDOUT)
        self.client = ServiceClient(sock, timeout_s=120.0)
        if not self.client.wait_until_ready(timeout_s=60.0):
            raise RuntimeError("profiling daemon did not come up")
        seeds = [SeedPlan(random.Random(f"{self.name}:{self.seed}:setup:{c}")) for c in range(self.clients)]
        self.plans = [SeedPlan(rng) for rng in self.rngs]
        self.done: List[List[Tuple[Any, str]]] = [[] for _ in range(self.clients)]
        for c in range(self.clients):
            for _ in range(self.sizing.warmup_ops):
                for rec in [self.write(c, seeds[c])] + [self.read(c)]:
                    if not rec.ok:
                        raise RuntimeError(f"{self.name}: warm-up {rec.kind} failed ({rec.failure})")

    def teardown(self) -> None:
        if self.proc is None:
            return
        try:
            self.status = self.client.status().get("status", {})
            self.client.shutdown()
            self.proc.wait(timeout=60)
        except Exception:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self.log.close()
            self.proc = None

    def jobspec(self, client: int, base: int):
        from repro.harness.service import JobSpec

        return JobSpec(
            tenant=f"client-{client}", app=SERVICE_APP, runs=SERVICE_RUNS, base_seed=base,
        )

    def write(self, client: int, seeds: SeedPlan) -> OpRecord:
        """A new spec: submit without waiting (admission + queue-journal
        fsync), then wait for the executed result."""
        from repro.core.profile_data import ProfileData

        spec = self.jobspec(client, seeds.take())
        self._set_op()
        t0 = time.perf_counter()
        try:
            resp = self.client.submit(spec)
            admit = time.perf_counter() - t0
            if not resp.get("ok"):
                shed = resp.get("error") == "ServiceOverloadError"
                return OpRecord("op", time.perf_counter() - t0, False, "shed" if shed else "error")
            if "job_id" not in resp or resp.get("cached") or resp.get("dedup"):
                return OpRecord("op", time.perf_counter() - t0, False, "check")
            done = self.client.wait(resp["job_id"], timeout_s=120.0)
        except Exception as exc:
            print(f"{self.name}: write raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return OpRecord("op", time.perf_counter() - t0, False, "error")
        latency = time.perf_counter() - t0
        result = done.get("result") or {}
        if not done.get("ok") or result.get("state") != "done":
            return OpRecord("op", latency, False, "check")
        data = ProfileData.from_json(json.dumps(result["profile_data"]))
        failure, text = check_profile(data)
        if failure is None:
            self.done[client].append((spec, text))
            m = result["metrics"]
            self.note_sim(client, sim_stats(
                [(m["virtual_ns"], m["events"], m["samples"])], result["experiments"], text,
            ))
        return OpRecord("op", latency, failure is None, failure, admit_s=admit)

    def read(self, client: int) -> OpRecord:
        """Resubmit a spec this client completed: a ResultStore hit."""
        from repro.core.profile_data import ProfileData

        spec, ref = self.done[client][self.rngs[client].randrange(len(self.done[client]))]
        self._set_op()
        t0 = time.perf_counter()
        try:
            resp = self.client.submit(spec)
        except Exception as exc:
            print(f"{self.name}: read raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return OpRecord("hit", time.perf_counter() - t0, False, "error")
        latency = time.perf_counter() - t0
        if not resp.get("ok"):
            shed = resp.get("error") == "ServiceOverloadError"
            return OpRecord("hit", latency, False, "shed" if shed else "error")
        if not resp.get("cached"):
            return OpRecord("hit", latency, False, "check")
        data = ProfileData.from_json(json.dumps(resp["result"]["profile_data"]))
        failure, _ = check_profile(data, ref)
        return OpRecord("hit", latency, failure is None, failure)

    # Rounds: one client writes while the others re-read their completed
    # specs until that write settles; the writer rotates each round.  So
    # every hit overlaps exactly one executing job and every job runs
    # beside reads only; free-running clients would mix hits with zero,
    # one or two jobs in flight, and the median would jump between them.

    def start(self, deadline: float) -> None:
        self.deadline = deadline
        self.round = -1
        self.barrier = threading.Barrier(self.clients, action=self._next_round)
        self._next_round()

    def _next_round(self) -> None:
        self.round += 1
        self.go = time.perf_counter() < self.deadline
        self.settled = threading.Event()

    def keep_going(self) -> bool:
        return self.go

    def abort(self) -> None:
        self.barrier.abort()

    def step(self, client: int) -> List[OpRecord]:
        settled = self.settled
        if self.round % self.clients == client:
            recs = [self.write(client, self.plans[client])]
            settled.set()
        else:
            recs = []
            while not settled.is_set() and not self.barrier.broken:
                recs.append(self.read(client))
        self.barrier.wait()
        return recs

    def switch_trace(self, on: bool) -> None:
        from spans import switch_remote

        super().switch_trace(on)
        switch_remote(self.tracer.dir, self.proc.pid, on)

    def side_spec(self):
        spec, cfg, _ = self.jobspec(0, 0).build_session()
        return spec, cfg

    def layer_extras(self, records: List[OpRecord]) -> Dict[str, float]:
        submits = len(records)
        hits = sum(1 for r in records if r.kind == "hit" and r.ok)
        shed = sum(1 for r in records if r.failure == "shed")
        admit = [r.admit_s for r in records if r.ok and r.admit_s is not None]
        queue = self.status.get("queue", {})
        return {
            "service.admit_s": median(admit) if admit else 0.0,
            "service.queue_wait_s": float(queue.get("latency_avg_s", 0.0)),
            "service.hit_ratio": _ratio(hits, submits),
            "service.shed": _ratio(shed, submits),
        }


WORKLOADS = {w.name: w for w in (ColdProfile, WarmParallel, ServiceMix)}


# --------------------------------------------------------- the run itself


@dataclass
class Phase:
    records: List[OpRecord]
    elapsed_s: float

    @property
    def ops_per_s(self) -> float:
        done = sum(1 for r in self.records if r.kind == "op" and r.ok)
        return done / self.elapsed_s

    @staticmethod
    def join(phases: List["Phase"]) -> "Phase":
        return Phase([r for p in phases for r in p.records], sum(p.elapsed_s for p in phases))


def closed_loop(work: Workload, seconds: float) -> Phase:
    """Every client issues its next step only after the previous one
    completed, until ``seconds`` have passed (the workload decides when
    its clients stop together)."""
    start = time.perf_counter()
    work.start(start + seconds)
    per_client: List[List[OpRecord]] = [[] for _ in range(work.clients)]
    errors: List[BaseException] = []

    def client(c: int) -> None:
        try:
            while work.keep_going():
                per_client[c].extend(work.step(c))
        except BaseException as exc:  # surfaced below, in the caller
            errors.append(exc)
            work.abort()

    if work.clients == 1:
        client(0)
    else:
        threads = [threading.Thread(target=client, args=(c,)) for c in range(work.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    elapsed = time.perf_counter() - start
    return Phase([r for recs in per_client for r in recs], elapsed)


def side_measurements(spec, cfg, seeds: List[int]) -> Dict[str, float]:
    """Per-run layer costs measured outside the op stream, tracing off.

    * ``profiler.hook_s``: ``Program.run`` with a ``CausalProfiler``
      minus with no hook;
    * ``checkpoint.record_s``: a cold checkpointed ``execute_run`` minus
      the plain profiled ``Program.run`` of the same seed;
    * ``apps.resumes`` / ``apps.ops_per_s``: the generator sends of one
      run (the op log of a snapshot taken at its last event) and the
      rate at which ``restore`` replays them into fresh app threads,
      with no event loop.
    """
    from repro import CausalProfiler, CozConfig
    from repro.harness.checkpoint import CheckpointStore, clear_memory_cache, execute_run
    from repro.sim.snapshot import Recorder, restore

    cfg = cfg or CozConfig(scope=spec.scope)

    def hook(seed):
        return CausalProfiler(replace(cfg, seed=seed), spec.progress_points, spec.latency_specs)

    def clock(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    hook_s, record_s, resumes, drain = [], [], [], []
    for seed in seeds:
        plain = clock(lambda: spec.build(seed).run())
        hooked = clock(lambda: spec.build(seed).run(hook=hook(seed)))
        clear_memory_cache()
        store = CheckpointStore(f"perfbench-side-{seed}")
        ckpt = clock(lambda: execute_run(lambda: (spec.build(seed), hook(seed), None), seed, store=store))
        hook_s.append(hooked - plain)
        record_s.append(ckpt - hooked)

        end_ns = spec.build(seed).run(hook=hook(seed)).runtime_ns
        rec = Recorder(grid=[end_ns - 1])
        spec.build(seed).run(hook=hook(seed), recorder=rec)
        if rec.snapshots:
            snap = rec.snapshots[-1]
            resumes.append(snap.n_ops)
            drain.append(snap.n_ops / clock(lambda: restore(snap, spec.build(seed), hook=hook(seed))))
    clear_memory_cache()
    return {
        "profiler.hook_s": median(hook_s),
        "checkpoint.record_s": median(record_s),
        "apps.resumes": median(resumes) if resumes else 0.0,
        "apps.ops_per_s": median(drain) if drain else 0.0,
    }


#: layers the traced run splits time across (module names)
LAYERS = ("runner", "parallel", "sim", "checkpoint", "snapshot", "wire",
          "analysis", "journal", "service")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[dict], ops: int) -> Dict[str, float]:
    """Per-layer metrics from the traced phase's spans: medians per call
    for times, means per run or per op for counts."""
    by_name: Dict[str, List[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def med(name):
        durs = [s["end"] - s["start"] for s in by_name.get(name, [])]
        return median(durs) if durs else 0.0

    def mean_attr(names, key):
        got = [s["attrs"].get(key, 0) for n in names for s in by_name.get(n, [])]
        return _ratio(sum(got), len(got))

    def count(name):
        return len(by_name.get(name, []))

    dispatch = []
    for s in by_name.get("parallel.execute_tasks", []):
        a = s["attrs"]
        width = max(1, min(a["jobs"] or 1, a["tasks"]))
        # a session whose runs all executed in-process dispatched nothing
        worker = a["worker_s"]
        dispatch.append((s["end"] - s["start"]) - worker / width if worker > 0 else 0.0)
    tasks = sum(s["attrs"]["tasks"] for s in by_name.get("parallel.execute_tasks", []))
    out = {
        "sim.run_s": med("sim.run"),
        "sim.resume_s": med("sim.resume"),
        "sim.events": mean_attr(("sim.run", "sim.resume"), "events"),
        "sim.accel_loops": mean_attr(("sim.run", "sim.resume"), "accel_loops"),
        "checkpoint.hit_ratio": _ratio(count("sim.resume"), count("checkpoint.execute_run")),
        "snapshot.bytes": mean_attr(("snapshot.encode",), "bytes"),
        "snapshot.encode_s": med("snapshot.encode"),
        "snapshot.decode_s": med("snapshot.decode"),
        "analysis.build_s": med("analysis.build"),
        "wire.bytes_per_run": mean_attr(("wire.encode",), "bytes"),
        "wire.encode_s": med("wire.encode"),
        "wire.decode_s": med("wire.decode"),
        "parallel.dispatch_s": median(dispatch) if dispatch else 0.0,
        "parallel.retries": _ratio(count("parallel.retry"), tasks),
        "journal.append_s": med("journal.append"),
        "journal.appends": _ratio(count("journal.append"), ops),
        "service.store_get_s": med("service.store_get"),
        "service.store_put_s": med("service.store_put"),
    }
    self_s = layer_self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _ratio(self_s.get(layer, 0.0), ops)
        out[f"{layer}.calls"] = _ratio(sum(1 for s in spans if s["layer"] == layer), ops)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizing: Sizing, work_dir: str) -> Dict[str, Any]:
    """Set up (timed, ``setup_reps`` times), run the closed loop, check,
    and return the metrics with their sample counts."""
    os.makedirs(work_dir, exist_ok=True)
    work = WORKLOADS[name](seed, sizing, work_dir)
    tracer = None
    if trace:
        from spans import Tracer

        trace_dir = os.path.join(work_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        tracer = Tracer(trace_dir, in_memory=True)
        work.tracer = tracer

    setup_s: List[float] = []
    untraced: List[Phase] = []
    traced: List[Phase] = []
    try:
        for rep in range(sizing.setup_reps):
            if rep:
                work.teardown()
            t0 = time.perf_counter()
            time_import()
            work.setup(rep)
            setup_s.append(time.perf_counter() - t0)
        if tracer is None:
            untraced.append(closed_loop(work, seconds))
        else:
            # the ops/s of the untraced and the traced slices give the
            # tracing overhead; every slice starts with all clients idle
            for on in TRACE_SLICES:
                work.switch_trace(on)
                phase = closed_loop(work, seconds / len(TRACE_SLICES))
                (traced if on else untraced).append(phase)
            work.switch_trace(False)
    finally:
        work.teardown()

    attempted, failed, reasons = count_outcomes(
        r for p in untraced + traced for r in p.records
    )
    measured = Phase.join(traced or untraced)
    ops = summarize_latencies(ok_latencies(measured.records, "op"), OP_TAIL_CAP)
    hits = summarize_latencies(ok_latencies(measured.records, "hit"), HIT_TAIL_CAP)
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "host": host_record(),
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "correct": failed == 0,
        "hit": work.hit_name,
        "sim": fold_stats([s for per in work.sim for s in per]),
        "samples": {
            "setup_s": len(setup_s),
            "op": ops.n,
            "hit": hits.n,
            "op_tail_pct": ops.tail_pct,
            "hit_tail_pct": hits.tail_pct,
        },
        "metrics": {},
        "layers": {},
    }
    if tracer is None:
        result["metrics"] = {
            "setup_s": median(setup_s),
            "op_p50_s": ops.p50,
            "op_tail_s": ops.tail,
            "ops_per_s": measured.ops_per_s,
            "peak_rss_mb": peak_rss_mb(),
            "hit_p50_s": hits.p50,
            "hit_tail_s": hits.tail,
        }
        return result

    spans = tracer.load_all()
    n_ops = sum(1 for r in measured.records if r.kind == "op")
    layers = layer_metrics(spans, n_ops)
    layers.update(work.layer_extras(measured.records))
    spec, cfg = work.side_spec()
    side_rng = random.Random(f"{name}:{seed}:side")
    side = side_measurements(
        spec, cfg, [side_rng.randrange(1 << 20) for _ in range(sizing.side_seeds)]
    )
    # recording is paid only by the op stream's runs that did not resume
    executed = sum(1 for s in spans if s["name"] == "checkpoint.execute_run")
    side["checkpoint.record_s"] *= 1.0 - layers["checkpoint.hit_ratio"] if executed else 0.0
    layers.update(side)
    plain, spanned = Phase.join(untraced).ops_per_s, measured.ops_per_s
    layers["trace.untraced_ops_per_s"] = plain
    layers["trace.ops_per_s"] = spanned
    layers["trace.overhead"] = 1.0 - spanned / plain if plain else 0.0
    result["layers"] = layers
    result["spans"] = len(spans)
    return result
