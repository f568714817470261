"""The discrete-event execution engine.

The engine schedules virtual threads (generator coroutines) onto a fixed
number of virtual cores, advancing an integer nanosecond clock from event to
event.  It is deliberately shaped like the slice of the system Coz lives in:

* threads execute on-CPU *chunks* bounded by a scheduling quantum, so the
  machine is fair under oversubscription (50 memcached clients on 8 cores)
  and the profiler gets control at a bounded latency;
* per-thread CPU-time sampling accrues during chunks and is delivered to the
  installed :class:`~repro.sim.hooks.ProfilerHook` in batches at chunk
  boundaries;
* every blocking and waking edge of every synchronization primitive passes
  through the hook, which may insert pauses before the edge or skip credited
  pauses after it — the exact interposition surface of paper Tables 1-2;
* an optional *interference model*: threads marked as spinning raise a global
  interference level that slows down memory-bound work elsewhere, modelling
  the cache-coherence traffic of busy-wait loops.

Determinism: given the same program and configuration, event ordering is a
pure function of (time, sequence-number), so runs are exactly repeatable.

Hot path
--------

The inner loop is built for throughput without changing any observable
result (see ``tests/sim/test_golden_trace.py`` for the bit-identity
referee):

* **Typed events.** Heap entries are plain tuples
  ``(when, seq, kind, obj, arg)`` where ``kind`` is a small integer code
  dispatched by an ``if`` ladder in :meth:`run`; completion events carry the
  thread and its ``chunk_token`` directly instead of closing over them, so
  the per-event closure allocation of the old ``(when, seq, lambda)`` scheme
  is gone.  Only :meth:`call_at` timers (profiler experiment boundaries —
  rare) still carry a callable.

* **Chunk coalescing.** A quantum exists for two reasons: round-robin
  fairness when threads wait for a core, and bounded latency for sample
  delivery.  When neither applies — the ready queue is empty, the activity
  is not subject to interference rescaling — the engine books one large
  chunk bounded by the next *interesting* point: the end of the activity,
  or the analytically-computed nominal-CPU boundary where the thread's
  sample buffer reaches ``sample_batch`` and the legacy engine would have
  flushed.  Because legacy flushes only ever happen on the quantum grid
  (multiples of ``quantum_ns`` of CPU from the activity start), the
  coalesced chunk ends at exactly the grid point where the legacy flush
  fired, and the sampler's timestamp interpolation reproduces every sample
  time bit-for-bit.  An in-flight mega-chunk is *truncated* back to its
  next grid boundary — via the existing ``chunk_token`` invalidation
  machinery — when fairness suddenly matters (a thread becomes ready on a
  saturated machine) or when a profiler timer hands the running thread a
  pending pause/CPU charge, which the legacy engine would have honoured at
  its next quantum boundary.  Set ``SimConfig.coalesce=False`` to force the
  legacy per-quantum path (the golden-trace tests run both and require
  identical output).

* **Op dispatch.** ``isinstance`` ladders are replaced by a per-op-class
  dispatch table built at engine construction, and op continuations are
  ``(method, op)`` pairs instead of fresh lambdas.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Set, Tuple

from repro.sim import ops as O
from repro.sim.clock import MS, US
from repro.sim.errors import (
    DeadlockError,
    SimulationError,
    StuckLockError,
    SyncError,
    ThreadCrashFault,
)
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.hooks import Observer, ProfilerHook
from repro.sim.sampler import Sampler
from repro.sim.source import RUNTIME_LINE, SourceLine
from repro.sim.sync import Barrier, CondVar, Mutex, Semaphore
from repro.sim.thread import Frame, ThreadState, VThread

BLOCKED = ThreadState.BLOCKED
FINISHED = ThreadState.FINISHED
READY = ThreadState.READY
RUNNING = ThreadState.RUNNING
SLEEPING = ThreadState.SLEEPING

# Typed heap-event kind codes: (when, seq, kind, obj, arg).
_EV_CHUNK = 0      # obj=thread, arg=chunk_token  -> chunk completed
_EV_PAUSE = 1      # obj=thread, arg=chunk_token  -> inserted pause elapsed
_EV_OVERHEAD = 2   # obj=thread, arg=chunk_token  -> profiler CPU slice done
_EV_SLEEP = 3      # obj=thread, arg=chunk_token  -> timed suspension over
_EV_TIMER = 4      # obj=callable                 -> profiler-thread timer

#: op-log sentinel marking a spawn *execution* (see ``_do_spawn``); the
#: generator-send entries use an Op (or None for StopIteration) in this slot
_SPAWN_EXEC = object()


@dataclass
class SimConfig:
    """Machine and runtime-cost model parameters."""

    #: number of virtual cores
    cores: int = 8
    #: maximum on-CPU chunk length (scheduling quantum / hook latency bound)
    quantum_ns: int = MS(2)
    #: per-thread CPU-time sampling period (Coz default: 1 ms)
    sample_period_ns: int = MS(1)
    #: samples per processing batch (Coz default: 10)
    sample_batch: int = 10
    #: slowdown of memory-bound work per spinning thread (cache coherence)
    interference_coeff: float = 0.0
    #: CPU cost of a mutex lock/unlock/trylock operation
    lock_cost_ns: int = 60
    #: CPU cost of condvar/barrier/semaphore operations
    sync_cost_ns: int = 150
    #: CPU cost of spawning a thread
    spawn_cost_ns: int = US(5)
    #: hard stop for runaway simulations (None = unlimited)
    max_virtual_ns: Optional[int] = None
    #: engine RNG seed: drives per-thread sampling phase jitter
    seed: int = 0
    #: process a thread's buffered samples before it blocks (Coz's runtime
    #: interposes on blocking calls and drains available samples there, so
    #: mostly-blocked threads do not sit on stale batches)
    flush_samples_on_block: bool = True
    #: randomize each thread's sampling phase (realistic perf_event behaviour;
    #: also prevents aliasing between aligned sampling clocks and periodic
    #: work, a bias source the paper warns about)
    sample_phase_jitter: bool = True
    #: coalesce on-CPU chunks past the quantum whenever fairness and sample
    #: delivery do not require quantum granularity (bit-identical results;
    #: False forces the legacy per-quantum inner loop)
    coalesce: bool = True
    #: deterministic fault injection (:mod:`repro.sim.faults`); ``None``
    #: disables every injection path at zero hot-loop cost
    faults: Optional[FaultPlan] = None
    #: engine execution backend: ``"pure"``, ``"accel"``, or ``None`` for
    #: the process default (``REPRO_ENGINE_BACKEND`` env, else accel when
    #: the compiled core is built).  Execution-only — results are
    #: bit-identical either way — so it is excluded from ``repr`` and
    #: thereby from every canonical session/checkpoint fingerprint.
    backend: Optional[str] = field(default=None, repr=False)
    #: sample-pipeline flavour: ``True`` columnar, ``False`` scalar, or
    #: ``None`` for the process default (``REPRO_SAMPLE_PIPELINE`` env,
    #: else columnar).  Execution-only, like ``backend``.
    columnar_samples: Optional[bool] = field(default=None, repr=False)


class Engine:
    """Event-driven scheduler for virtual threads."""

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        self.cfg = config or SimConfig()
        if self.cfg.cores < 1:
            raise ValueError("need at least one core")
        self.now: int = 0
        self.rng = random.Random(self.cfg.seed)
        self._seq: int = 0
        self._heap: List[Tuple] = []
        self._timer_count: int = 0  # pending non-thread (timer) events

        self.threads: List[VThread] = []
        self.ready: Deque[VThread] = deque()
        self.running: Set[VThread] = set()
        self._alive = 0
        self._sleeping = 0

        self.hook: Optional[ProfilerHook] = None
        self.observers: List[Observer] = []
        #: subset of observers that override on_block/on_unblock; block/wake
        #: notifications (and the per-thread block timestamps backing their
        #: ``blocked_ns``) are maintained only when this is non-empty, so
        #: ordinary runs pay nothing for the surface
        self._block_observers: List[Observer] = []
        self._blocked_at: dict = {}
        from repro.sim import backend as _backend

        #: resolved execution backend for this engine ('pure' or 'accel')
        self.backend: str = _backend.resolve_backend(self.cfg.backend)
        self._backend_loop = _backend.event_loop_for(self.backend)
        #: times the compiled core actually ran an event loop for this
        #: engine (0 under the pure backend or an accel fallback) — perfbench
        #: and tests use this to prove the accel path really engaged
        self.accel_loops = 0
        columnar = self.cfg.columnar_samples
        if columnar is None:
            columnar = _backend.default_columnar()
        self.sampler = Sampler(
            self.cfg.sample_period_ns, self.cfg.sample_batch, columnar=columnar
        )
        self.sampling_enabled = False
        self._observer_sampling = False
        self._sampling_live = False
        self._call_overhead_ns = 0
        self._coalesce = bool(self.cfg.coalesce)
        # fault injection: built once per run from (plan seed, run seed), so
        # the injector's RNG stream is disjoint from the engine's and a
        # faulted schedule reproduces exactly
        self._faults = (
            FaultInjector(self.cfg.faults, self.cfg.seed)
            if self.cfg.faults is not None and self.cfg.faults.any_sim_faults
            else None
        )
        self._stalled: Optional[VThread] = None

        #: number of threads currently marked as spinning
        self.interference = 0
        #: lines registered as breakpoint progress points
        self._line_watchers: Set[SourceLine] = set()
        #: raw visit counts of source-level progress points
        self.progress_counts: Counter = Counter()
        #: total profiler-inserted pause time across all threads
        self.total_delay_ns = 0
        #: total nominal CPU time executed across all threads
        self.total_cpu_ns = 0
        #: heap events processed (perf observability, see perfbench's sim layer)
        self.events_processed = 0

        self.main_thread: Optional[VThread] = None
        self._started = False

        # checkpoint fast-forward plumbing (repro.sim.snapshot): when a
        # Recorder is attached, every generator send is appended to _oplog
        # and the run loop takes a state snapshot each time virtual time is
        # about to cross _snap_next.  All three stay None on ordinary runs,
        # so the hot path pays one local None-check per event.
        self._oplog: Optional[List] = None
        self._snap_next: Optional[int] = None
        self._recorder = None

        # per-op-class setup plans: type -> (cpu_cost_ns, completion_action,
        # blocking, waking); a None action marks Work, which is special-cased
        # in _setup_op_body.  The blocking/waking class flags are folded into
        # the plan so _setup_op resolves everything with one dict lookup.
        cfg = self.cfg
        base_table = {
            O.Work: (0, None),
            O.Lock: (cfg.lock_cost_ns, self._do_lock),
            O.TryLock: (cfg.lock_cost_ns, self._do_trylock),
            O.Unlock: (cfg.lock_cost_ns, self._do_unlock),
            O.CondWait: (cfg.sync_cost_ns, self._do_cond_wait),
            O.Signal: (cfg.sync_cost_ns, self._do_signal),
            O.Broadcast: (cfg.sync_cost_ns, self._do_broadcast),
            O.BarrierWait: (cfg.sync_cost_ns, self._do_barrier_wait),
            O.SemWait: (cfg.sync_cost_ns, self._do_sem_wait),
            O.SemPost: (cfg.sync_cost_ns, self._do_sem_post),
            O.Join: (0, self._do_join),
            O.Sleep: (0, self._do_sleep),
            O.IO: (0, self._do_io),
            O.Spawn: (cfg.spawn_cost_ns, self._do_spawn),
            O.Progress: (0, self._do_progress),
            O.PushFrame: (0, self._do_push_frame),
            O.PopFrame: (0, self._do_pop_frame),
            O.SetSpinning: (0, self._do_set_spinning),
        }
        self._op_table = {
            klass: (cost, action, klass.blocking, klass.waking)
            for klass, (cost, action) in base_table.items()
        }

    # ------------------------------------------------------------------ setup

    def install(self, hook: ProfilerHook) -> None:
        """Install the active profiler hook (at most one)."""
        if self.hook is not None:
            raise SimulationError("a profiler hook is already installed")
        self.hook = hook
        hook.attach(self)

    def add_observer(self, obs: Observer) -> None:
        self.observers.append(obs)
        self._call_overhead_ns = max(
            self._call_overhead_ns, getattr(obs, "call_overhead_ns", 0)
        )
        if getattr(obs, "wants_samples", False):
            self._observer_sampling = True
            self._sampling_live = True
        cls = type(obs)
        if (
            getattr(cls, "on_block", Observer.on_block) is not Observer.on_block
            or getattr(cls, "on_unblock", Observer.on_unblock)
            is not Observer.on_unblock
        ):
            self._block_observers.append(obs)

    def watch_line(self, line: SourceLine) -> None:
        """Register a breakpoint progress point on ``line``."""
        self._line_watchers.add(line)

    def enable_sampling(self) -> None:
        self.sampling_enabled = True
        self._sampling_live = True

    # ------------------------------------------------------------------ timers

    def call_at(self, when: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` at virtual time ``when`` (profiler-thread timers)."""
        if when < self.now:
            when = self.now
        self._timer_count += 1
        self._push_event(when, _EV_TIMER, fn, 0)

    def call_after(self, delay: int, fn: Callable[[], None]) -> None:
        self.call_at(self.now + delay, fn)

    def _push_event(
        self,
        when: int,
        kind: int,
        obj,
        arg: int,
        lp: Optional[int] = None,
        sub: Optional[int] = None,
    ) -> None:
        """Schedule a heap event.

        Events are ordered by ``(when, lp, sub, seq)``.  With the defaults
        (``lp`` = push time, ``sub`` = seq) this is identical to plain
        ``(when, seq)`` order, since seq grows monotonically with time — the
        exact ordering of the pre-coalescing engine, and the only ordering
        used when ``coalesce=False``.

        Coalesced chunk-completion events supply both fields so that ties at
        the same virtual instant resolve exactly as the legacy per-quantum
        engine resolved them:

        * ``lp`` — the virtual time at which the legacy engine would have
          pushed its final partial chunk for the same span: the last
          quantum-grid boundary strictly before ``when``.  Legacy events
          pushed at different times are ordered by push time, and ``lp``
          reproduces that.
        * ``sub`` — the thread's *chain key*: the seq of the first chunk
          pushed after the thread was last dispatched from the ready queue.
          Legacy chunk events pushed at the same instant keep their relative
          order from boundary to boundary (each completion pushes the next
          chunk within its own processing step), so the order among
          lock-stepped chains is the order in which the chains were born;
          the chain key is exactly that birth order.
        """
        self._seq += 1
        heapq.heappush(
            self._heap,
            (
                when,
                self.now if lp is None else lp,
                self._seq if sub is None else sub,
                self._seq,
                kind,
                obj,
                arg,
            ),
        )

    # ------------------------------------------------------------------ threads

    def spawn(
        self,
        body: Callable,
        name: Optional[str] = None,
        parent: Optional[VThread] = None,
    ) -> VThread:
        """Create a thread and make it runnable."""
        t = VThread(body, name=name, parent=parent, tid=len(self.threads))
        if self.sampler.columnar:
            t.sample_buffer = self.sampler.new_buffer()
        if self.cfg.sample_phase_jitter:
            # desynchronize sampling clocks across threads, like real timers
            t.sample_accum = self.rng.randrange(self.cfg.sample_period_ns)
        self.threads.append(t)
        self._alive += 1
        if self.main_thread is None:
            self.main_thread = t
        if self.hook is not None:
            self.hook.on_thread_created(t, parent)
        for obs in self.observers:
            obs.on_thread_created(t, parent)
        t.state = READY
        self.ready.append(t)
        return t

    # ------------------------------------------------------------------ run loop

    def run(self) -> None:
        """Run until every thread has finished."""
        if self._started:
            raise SimulationError("engine.run() may only be called once")
        self._started = True
        if self.main_thread is None:
            raise SimulationError("no threads spawned before run()")
        if self.hook is not None:
            self.hook.on_run_start(self)
        for obs in self.observers:
            obs.on_run_start(self)
        if self._faults is not None:
            self._arm_faults()
        self._dispatch()
        self._event_loop()
        self._finish_run()

    def resume_run(self) -> None:
        """Continue a snapshot-restored engine to completion.

        The restore path (:mod:`repro.sim.snapshot`) rebuilds the exact
        state the cold run had at a top-of-loop instant, so resuming means
        re-entering the event loop directly: no ``on_run_start``, no fault
        arming (pending fault timers are already in the restored heap), and
        no initial dispatch (the capture point follows the previous
        iteration's dispatch).  ``on_run_end`` fires normally.
        """
        if not self._started:
            raise SimulationError("resume_run() needs a snapshot-restored engine")
        self._event_loop()
        self._finish_run()

    def _finish_run(self) -> None:
        if self.hook is not None:
            self.hook.on_run_end(self)
        for obs in self.observers:
            obs.on_run_end(self)

    def _event_loop(self) -> None:
        """Run the selected backend's event loop (see repro.sim.backend).

        The loop itself lives in :mod:`repro.sim.backend.pure` (reference)
        and ``repro.sim.backend._core`` (optional compiled twin); both
        drive this engine's state through the same methods and produce
        bit-identical results.
        """
        self._backend_loop(self)

    def _raise_overrun(self) -> None:
        raise SimulationError(
            f"virtual time exceeded max_virtual_ns "
            f"({self.now} > {self.cfg.max_virtual_ns})",
            virtual_ns=self.now,
        )

    def _take_checkpoint(self) -> Optional[int]:
        """Hand the attached recorder a capture opportunity.

        Returns the next grid boundary (or None to stop capturing).  A
        capture failure disables further snapshots but never perturbs or
        kills the run — the run simply stays cold.
        """
        recorder = self._recorder
        if recorder is None:
            self._snap_next = None
            return None
        self._snap_next = recorder.take(self)
        return self._snap_next

    def _raise_deadlock(self) -> None:
        raise DeadlockError(virtual_ns=self.now, blocked=self._blocked_diagnostics())

    def _blocked_diagnostics(self):
        """(name, blocked_on, full callchain) for every blocked thread."""
        return [
            (t.name, t.blocked_on, t.callchain())
            for t in self.threads
            if t.state is BLOCKED
        ]

    # ------------------------------------------------------------------ faults

    def _arm_faults(self) -> None:
        """Schedule this run's injected faults as ordinary engine timers."""
        inj = self._faults
        if inj.crash_at_ns is not None:
            self.call_at(inj.crash_at_ns, self._fault_crash)
        if inj.stall_at_ns is not None:
            self.call_at(inj.stall_at_ns, self._fault_stall)

    def _fault_victim(self, prefer_running: bool) -> Optional[VThread]:
        """Deterministic victim choice: first on-CPU thread in spawn order,
        else the first alive unblocked one."""
        if prefer_running:
            for t in self.threads:
                if t.state is RUNNING:
                    return t
        for t in self.threads:
            if t.alive and t.state is not BLOCKED:
                return t
        return None

    def _fault_crash(self) -> None:
        victim = self._fault_victim(prefer_running=True)
        if victim is None:
            return  # nothing left to crash; the run is ending anyway
        raise ThreadCrashFault(victim.name, self.now)

    def _fault_stall(self) -> None:
        """Wedge a running thread on-CPU (a stuck lock-holder, if it holds
        one) and arm the in-sim stall detector."""
        victim = self._fault_victim(prefer_running=True)
        if victim is None:
            return
        victim.activity_remaining += self._faults.plan.stall_ns
        self._stalled = victim
        self.call_after(self._faults.plan.stall_detect_ns, self._fault_stall_detect)

    def _fault_stall_detect(self) -> None:
        victim = self._stalled
        if victim is None or not victim.alive:
            return
        if victim.activity_remaining <= 0 and victim.state is not RUNNING:
            return  # the stall drained (plan with a short stall_ns)
        raise StuckLockError(victim.name, self.now, self._blocked_diagnostics())

    # ------------------------------------------------------------------ dispatch

    def _dispatch(self) -> None:
        """Assign ready threads to free cores and drive them."""
        ready = self.ready
        if not ready:
            return
        running = self.running
        cores = self.cfg.cores
        while ready and len(running) < cores:
            t = ready.popleft()
            if t.state is not READY:  # defensive; should not happen
                continue
            t.state = RUNNING
            t.chain_key = 0  # leaving the ready queue starts a new chunk chain
            running.add(t)
            self._drive(t)
        if ready and self._coalesce:
            # saturated machine with waiters: round-robin fairness is live
            # again, so no running thread may keep a chunk past its next
            # quantum-grid boundary
            self._truncate_for_fairness()

    def _drive(self, t: VThread) -> None:
        """Run ``t`` (RUNNING, on a core) until it needs time or leaves the CPU."""
        while t.state is RUNNING:
            if t.pending_cpu_ns > 0:
                self._start_overhead_slice(t)
                return
            if t.pending_pause_ns > 0:
                self._start_pause(t)
                return
            nominal = t.activity_remaining
            if nominal > 0:
                cfg = self.cfg
                if nominal <= cfg.quantum_ns and (
                    not t.activity_memory_bound
                    or cfg.interference_coeff == 0.0
                ):
                    # inlined sub-quantum chunk start (the dominant case for
                    # fine-grained workloads) — see _begin_chunk for the rest
                    t.chunk_start = now = self.now
                    t.chunk_nominal = nominal
                    t.chunk_rate = 1.0
                    t.chunk_token = tok = t.chunk_token + 1
                    if t.chain_key == 0:
                        t.chain_key = self._seq + 1
                    self._seq = seq = self._seq + 1
                    heapq.heappush(
                        self._heap,
                        (now + nominal, now, seq, seq, _EV_CHUNK, t, tok),
                    )
                    return
                self._begin_chunk(t)
                return
            cont = t.continuation
            if cont is not None:
                t.continuation = None
                cont[0](t, cont[1])
                continue
            self._advance(t)

    # ------------------------------------------------------------------ chunks

    def _rate(self, t: VThread) -> float:
        """Real-ns per nominal-ns for t's current activity."""
        if not t.activity_memory_bound or self.cfg.interference_coeff == 0.0:
            return 1.0
        level = self.interference - (1 if t.spinning else 0)
        if level <= 0:
            return 1.0
        return 1.0 + self.cfg.interference_coeff * level

    def _begin_chunk(self, t: VThread) -> None:
        cfg = self.cfg
        q = cfg.quantum_ns
        nominal = t.activity_remaining
        if (
            self._coalesce
            and nominal > q
            and not self.ready
            and not (t.activity_memory_bound and cfg.interference_coeff)
        ):
            # Coalesced fast path (rate is exactly 1.0 here: the activity is
            # either not memory-bound or interference is disabled).  Bound
            # the chunk by the next interesting point on the quantum grid.
            if self._sampling_live:
                sampler = self.sampler
                # nominal-CPU offset at which the sample buffer reaches the
                # batch size (the legacy engine flushes at the first quantum
                # boundary at/after that instant)
                x0 = (
                    (sampler.batch_size - len(t.sample_buffer))
                    * sampler.period_ns
                    - t.sample_accum
                )
                bound = q if x0 <= q else -(-x0 // q) * q
                if bound < nominal:
                    nominal = bound
            if cfg.max_virtual_ns is not None and nominal > q:
                # keep the runaway guard firing at (nearly) the same instant
                # as the quantum-chunked engine
                cap = ((cfg.max_virtual_ns - self.now) // q + 1) * q
                if cap < q:
                    cap = q
                if cap < nominal:
                    nominal = cap
            ck = t.chain_key
            if ck == 0:
                ck = t.chain_key = self._seq + 1
            t.chunk_start = self.now
            t.chunk_nominal = nominal
            t.chunk_token += 1
            t.chunk_rate = 1.0
            when = self.now + nominal
            rem = (nominal - 1) % q + 1  # legacy final partial-chunk length
            self._seq = seq = self._seq + 1
            heapq.heappush(
                self._heap,
                (when, when - rem, ck, seq, _EV_CHUNK, t, t.chunk_token),
            )
            return
        # legacy quantum path (also taken under fairness/interference)
        if nominal > q:
            nominal = q
        if not t.activity_memory_bound or cfg.interference_coeff == 0.0:
            rate = 1.0
            real = nominal
        else:
            rate = self._rate(t)
            real = nominal if rate == 1.0 else int(math.ceil(nominal * rate))
        t.chunk_start = self.now
        t.chunk_nominal = nominal
        t.chunk_rate = rate
        t.chunk_token += 1
        if t.chain_key == 0:
            # establish the chain's birth order even on the quantum path, so
            # a later coalesced chunk of this chain ties correctly; the
            # quantum push itself keeps the default (push-time, seq) key,
            # which reproduces legacy ordering exactly
            t.chain_key = self._seq + 1
        now = self.now
        self._seq = seq = self._seq + 1
        heapq.heappush(
            self._heap, (now + real, now, seq, seq, _EV_CHUNK, t, t.chunk_token)
        )

    def _truncate_chunk(self, t: VThread, q: int) -> None:
        """Pull an in-flight coalesced chunk back to its next grid boundary."""
        nominal = t.chunk_nominal
        elapsed = self.now - t.chunk_start  # == consumed CPU (rate is 1.0)
        bound = (elapsed // q + 1) * q
        if bound >= nominal:
            return  # already ends at/before the next boundary
        t.chunk_nominal = bound
        t.chunk_token += 1
        when = t.chunk_start + bound
        self._push_event(
            when, _EV_CHUNK, t, t.chunk_token, lp=when - q, sub=t.chain_key
        )

    def _mega_chunks(self, pending_only: bool) -> List[VThread]:
        q = self.cfg.quantum_ns
        cands = [
            t for t in self.running
            if t.chunk_nominal > q and t.chunk_rate == 1.0
            and (not pending_only or t.pending_pause_ns or t.pending_cpu_ns)
        ]
        if len(cands) > 1:
            cands.sort(key=lambda th: th.tid)
        return cands

    def _truncate_for_fairness(self) -> None:
        q = self.cfg.quantum_ns
        for t in self._mega_chunks(pending_only=False):
            self._truncate_chunk(t, q)

    def _truncate_pending(self) -> None:
        q = self.cfg.quantum_ns
        for t in self._mega_chunks(pending_only=True):
            self._truncate_chunk(t, q)

    def _account_cpu(self, t: VThread, nominal: int, allow_flush: bool) -> None:
        """Book ``nominal`` executed CPU ns: accounting, observers, sampling."""
        if nominal <= 0:
            return
        t.activity_remaining -= nominal
        t.cpu_ns += nominal
        self.total_cpu_ns += nominal
        if self.observers:
            func = t.current_func()
            for obs in self.observers:
                obs.on_work(t, t.activity_line, func, nominal)
        if self._sampling_live:
            sampler = self.sampler
            accum = t.sample_accum + nominal
            if accum < sampler.period_ns and len(t.sample_buffer) < sampler.batch_size:
                # no sample fires in this span and the buffer cannot flush:
                # skip the sampler call entirely (the common sub-period case)
                t.sample_accum = accum
                return
            batch = sampler.account(
                t, nominal, self.now, allow_flush, rate=t.chunk_rate
            )
            if batch is not None:
                self._deliver_batch(t, batch)

    def _deliver_batch(self, t: VThread, batch) -> None:
        """Deliver a flushed batch (Sample list, or ColumnarBuf) downstream.

        Columnar batches reach ``accepts_columnar`` consumers as segments;
        everyone else gets the materialized Sample list (computed at most
        once per batch) — byte-identical to the scalar pipeline's.
        """
        if self._faults is not None:
            # lossy ring buffer: the batch the profiler sees may have lost
            # or duplicated a sample (engine accounting is untouched)
            if type(batch) is not list:
                batch = batch.materialize()
            batch = self._faults.perturb_batch(batch)
            if not batch:
                return
        materialized = batch if type(batch) is list else None
        for obs in self.observers:
            if getattr(obs, "wants_samples", False):
                if getattr(obs, "accepts_columnar", False):
                    obs.on_sample_batch(batch)
                    continue
                if materialized is None:
                    materialized = batch.materialize()
                for s in materialized:
                    obs.on_sample(s)
        hook = self.hook
        if hook is not None and self.sampling_enabled:
            if type(batch) is not list and getattr(hook, "accepts_columnar", False):
                action = hook.on_samples(t, batch)
            else:
                if materialized is None:
                    materialized = batch.materialize()
                action = hook.on_samples(t, materialized)
            if action.pause_ns > 0:
                t.pending_pause_ns += action.pause_ns
            if action.cpu_ns > 0:
                t.pending_cpu_ns += action.cpu_ns

    def _start_pause(self, t: VThread) -> None:
        """Take the thread off-CPU for its pending profiler-inserted pause."""
        pause = t.pending_pause_ns
        t.pending_pause_ns = 0
        if self._faults is not None:
            # extreme nanosleep overshoot: the timeline pause stretches but
            # the delay engine's books do not — the drift the audit catches
            pause = self._faults.maybe_spike(pause, self.now)
        t.pause_ns += pause
        self.total_delay_ns += pause
        self._go_offcpu(t, SLEEPING, "inserted-pause")
        t.chunk_token += 1
        now = self.now
        self._seq = seq = self._seq + 1
        heapq.heappush(
            self._heap, (now + pause, now, seq, seq, _EV_PAUSE, t, t.chunk_token)
        )

    def _start_overhead_slice(self, t: VThread) -> None:
        """Charge pending profiler CPU cost (sample processing, startup)."""
        dur = t.pending_cpu_ns
        t.pending_cpu_ns = 0
        t.profiler_cpu_ns += dur
        t.cpu_ns += dur
        self.total_cpu_ns += dur
        t.chunk_token += 1
        now = self.now
        self._seq = seq = self._seq + 1
        heapq.heappush(
            self._heap, (now + dur, now, seq, seq, _EV_OVERHEAD, t, t.chunk_token)
        )

    # ------------------------------------------------------------------ interference

    def _set_spinning(self, t: VThread, spinning: bool) -> None:
        if t.spinning == spinning:
            return
        t.spinning = spinning
        self.interference += 1 if spinning else -1
        if self.cfg.interference_coeff:
            self._rescale_running()

    def _rescale_running(self) -> None:
        """Re-time in-flight memory-bound chunks after an interference change.

        Iterates in tid order: the running set's natural iteration order
        depends on hash-table layout, and rescale accounting emits observer
        events and heap pushes, so a deterministic order is required for
        engines to behave identically regardless of process history.
        """
        for t in sorted(self.running, key=lambda th: th.tid):
            if not t.activity_memory_bound or t.chunk_nominal <= 0:
                continue
            elapsed = self.now - t.chunk_start
            consumed = min(int(elapsed / t.chunk_rate), t.chunk_nominal)
            self._account_cpu(t, consumed, allow_flush=False)
            remaining_chunk = t.chunk_nominal - consumed
            rate = self._rate(t)
            t.chunk_start = self.now
            t.chunk_nominal = remaining_chunk
            t.chunk_rate = rate
            t.chunk_token += 1
            real = int(math.ceil(remaining_chunk * rate))
            # a rescale push happens inside a foreign processing step, which
            # re-establishes event order from this instant — restart the chain
            t.chain_key = self._seq + 1
            self._push_event(
                self.now + real, _EV_CHUNK, t, t.chunk_token, sub=t.chain_key
            )

    # ------------------------------------------------------------------ state changes

    def _go_offcpu(self, t: VThread, state: ThreadState, why: Optional[str]) -> None:
        self.running.discard(t)
        t.state = state
        t.blocked_on = why
        if state is SLEEPING:
            self._sleeping += 1

    def _block(self, t: VThread, why: str, obj: object = None) -> None:
        self._go_offcpu(t, BLOCKED, why)
        if self._block_observers:
            self._blocked_at[t] = self.now
            for obs in self._block_observers:
                obs.on_block(t, obj)

    def _make_ready(self, t: VThread) -> None:
        if t.state is SLEEPING:
            self._sleeping -= 1
        t.state = READY
        t.blocked_on = None
        self.ready.append(t)

    def _wake(self, t: VThread, waker: Optional[VThread], result: Any = None) -> None:
        """Wake a BLOCKED thread; apply the profiler's credit/charge rule."""
        if t.state is not BLOCKED:
            raise SimulationError(f"waking non-blocked thread {t}")
        t.woken_by = waker
        t.send_value = result
        if self.hook is not None:
            pause = self.hook.on_unblock(t, waker)
            if pause > 0:
                t.pending_pause_ns += pause
        t.blocked_on = None
        t.state = READY
        self.ready.append(t)
        if self._block_observers:
            # a timed wakeup (sleep/IO) transits through BLOCKED without an
            # on_block edge, so only threads with a recorded block instant
            # produce an unblock notification
            since = self._blocked_at.pop(t, None)
            if since is not None:
                blocked_ns = self.now - since
                for obs in self._block_observers:
                    obs.on_unblock(t, waker, blocked_ns)

    # ------------------------------------------------------------------ generator advance

    def _advance(self, t: VThread) -> None:
        """Pull ops from the thread's generator and set them up.

        Loops over *instant* ops (zero-cost, neither blocking nor waking:
        frame markers, progress visits, spin toggles) without bouncing
        through ``_drive``, and returns to the scheduler as soon as an op
        needs virtual time, a sync edge, or the thread left the CPU.
        """
        table = self._op_table
        oplog = self._oplog
        while True:
            sv = t.send_value
            try:
                op = t.gen.send(sv)
            except StopIteration as stop:
                if oplog is not None:
                    oplog.append((t.tid, sv, None))
                t.exit_value = stop.value
                self._begin_exit(t)
                return
            except Exception:
                # surface app bugs with thread context
                raise
            if oplog is not None:
                oplog.append((t.tid, sv, op))
            t.send_value = None
            t.current_op = op
            cls = op.__class__
            if cls is O.Work:
                # fast path for the by-far most common op: Work is neither
                # blocking nor waking, so the flush / pre-pause logic in
                # _setup_op can never apply
                line = op.line
                if line in self._line_watchers and self.hook is not None:
                    self.hook.on_line_visit(t, line)
                if line is not t.activity_line:
                    t.activity_line = line
                    t.chain_cache = None
                t.activity_memory_bound = op.memory_bound
                t.activity_remaining = op.duration
                return
            plan = table.get(cls)
            if plan is None:
                plan = self._resolve_op_plan(t, op)
            cost, action, blocking, waking = plan
            if blocking or waking or cost > 0 or action is None:
                self._setup_op(t, op, plan)
                return
            # instant op: run its action and keep pulling unless it changed
            # the thread's schedule (a hook or rescale may add pendings)
            action(t, op)
            if (
                t.state is not RUNNING
                or t.pending_pause_ns > 0
                or t.pending_cpu_ns > 0
                or t.activity_remaining > 0
                or t.continuation is not None
            ):
                return

    def _setup_op(self, t: VThread, op: O.Op, plan=None) -> None:
        """Decide pre-pause, CPU cost, and completion action for ``op``."""
        if plan is None:
            plan = self._op_table.get(op.__class__)
            if plan is None:
                plan = self._resolve_op_plan(t, op)
        cost, action, blocking, waking = plan
        if blocking or waking:
            if (
                self.cfg.flush_samples_on_block
                and t.sample_buffer
                and self._sampling_live
            ):
                self._deliver_batch(t, self.sampler.drain(t))
            hook = self.hook
            if hook is not None:
                pre = 0
                if blocking:
                    pre += hook.before_block(t)
                if waking:
                    pre += hook.before_wake_op(t)
                if pre > 0:
                    t.pending_pause_ns += pre
                    # after the pause, run the op body (cost + action)
                    t.continuation = (self._setup_op_body, op)
                    return
        # inlined _setup_op_body (hot path: one call per op) — keep in sync
        if action is None:  # Work: activity fields set directly, no cost op
            line = op.line
            if line in self._line_watchers and self.hook is not None:
                self.hook.on_line_visit(t, line)
            if line is not t.activity_line:
                t.activity_line = line
                t.chain_cache = None
            t.activity_memory_bound = op.memory_bound
            t.activity_remaining = op.duration
            return
        if cost > 0:
            line = getattr(op, "line", None)
            if line is None:
                line = RUNTIME_LINE
            t.activity_remaining = cost
            if line is not t.activity_line:
                t.activity_line = line
                t.chain_cache = None
            t.activity_memory_bound = False
            t.continuation = (action, op)
        else:
            action(t, op)

    def _setup_op_body(self, t: VThread, op: O.Op) -> None:
        plan = self._op_table.get(op.__class__)
        if plan is None:
            plan = self._resolve_op_plan(t, op)
        cost, action, _blocking, _waking = plan
        if action is None:  # Work: activity fields set directly, no cost op
            line = op.line
            if line in self._line_watchers and self.hook is not None:
                self.hook.on_line_visit(t, line)
            if line is not t.activity_line:
                t.activity_line = line
                t.chain_cache = None
            t.activity_memory_bound = op.memory_bound
            t.activity_remaining = op.duration
            return
        if cost > 0:
            line = getattr(op, "line", None)
            if line is None:
                line = RUNTIME_LINE
            t.activity_remaining = cost
            if line is not t.activity_line:
                t.activity_line = line
                t.chain_cache = None
            t.activity_memory_bound = False
            t.continuation = (action, op)
        else:
            action(t, op)

    def _resolve_op_plan(self, t: VThread, op: O.Op):
        """Slow path: resolve op subclasses through the MRO, then memoize."""
        if not isinstance(op, O.Op):
            raise SimulationError(
                f"thread {t.name} yielded {op!r}, which is not a simulator op"
            )
        for klass in op.__class__.__mro__:
            plan = self._op_table.get(klass)
            if plan is not None:
                self._op_table[op.__class__] = plan
                return plan
        raise SimulationError(f"thread {t.name} yielded unknown op {op!r}")

    # ------------------------------------------------------------------ op actions

    def _do_lock(self, t: VThread, op) -> None:
        m: Mutex = op.mutex
        if m.owner is None:
            m.owner = t
            m.acquires += 1
        else:
            m.waiters.append(t)
            m.contended_acquires += 1
            self._block(t, f"mutex:{m.name}", m)

    def _do_trylock(self, t: VThread, op) -> None:
        m: Mutex = op.mutex
        if m.owner is None:
            m.owner = t
            m.acquires += 1
            t.send_value = True
        else:
            t.send_value = False

    def _do_unlock(self, t: VThread, op) -> None:
        self._unlock(t, op.mutex)

    def _unlock(self, t: VThread, m: Mutex) -> None:
        if m.owner is not t:
            raise SyncError(
                f"{t.name} unlocking mutex {m.name} owned by "
                f"{getattr(m.owner, 'name', None)}"
            )
        if m.waiters:
            w = m.waiters.popleft()
            m.owner = w
            m.acquires += 1
            self._wake(w, waker=t)
        else:
            m.owner = None

    def _do_cond_wait(self, t: VThread, op) -> None:
        c: CondVar = op.cond
        m: Mutex = op.mutex
        if m.owner is not t:
            raise SyncError(f"{t.name} waiting on {c.name} without holding {m.name}")
        # release the mutex (may wake a lock waiter)
        self._unlock(t, m)
        c.waiters.append((t, m))
        self._block(t, f"cond:{c.name}", c)

    def _transfer_cond_waiter(self, waker: VThread, w: VThread, m: Mutex) -> None:
        """A signalled waiter must re-acquire its mutex before resuming."""
        if m.owner is None:
            m.owner = w
            m.acquires += 1
            self._wake(w, waker=waker)
        else:
            m.waiters.append(w)
            m.contended_acquires += 1
            w.blocked_on = f"mutex:{m.name}"

    def _do_signal(self, t: VThread, op) -> None:
        c: CondVar = op.cond
        c.signals += 1
        if c.waiters:
            w, m = c.waiters.popleft()
            self._transfer_cond_waiter(t, w, m)

    def _do_broadcast(self, t: VThread, op) -> None:
        c: CondVar = op.cond
        c.broadcasts += 1
        while c.waiters:
            w, m = c.waiters.popleft()
            self._transfer_cond_waiter(t, w, m)

    def _do_barrier_wait(self, t: VThread, op) -> None:
        b: Barrier = op.barrier
        b.arrived.append(t)
        if len(b.arrived) == b.n:
            b.cycles += 1
            for w in b.arrived[:-1]:
                self._wake(w, waker=t, result=False)
            b.arrived.clear()
            t.send_value = True  # serial thread
        else:
            self._block(t, f"barrier:{b.name}", b)

    def _do_sem_wait(self, t: VThread, op) -> None:
        s: Semaphore = op.sem
        if s.value > 0:
            s.value -= 1
        else:
            s.waiters.append(t)
            self._block(t, f"sem:{s.name}", s)

    def _do_sem_post(self, t: VThread, op) -> None:
        s: Semaphore = op.sem
        if s.waiters:
            w = s.waiters.popleft()
            self._wake(w, waker=t)
        else:
            s.value += 1

    def _do_join(self, t: VThread, op) -> None:
        target: VThread = op.thread
        if target.finished:
            t.send_value = target.exit_value
        else:
            target.joiners.append(t)
            self._block(t, f"join:{target.name}", target)

    def _do_sleep(self, t: VThread, op) -> None:
        self._suspend_timed(t, op.duration, "sleep")

    def _do_io(self, t: VThread, op) -> None:
        self._suspend_timed(t, op.duration, "io")

    def _suspend_timed(self, t: VThread, duration: int, kind: str) -> None:
        self._go_offcpu(t, SLEEPING, kind)
        t.chunk_token += 1
        self._push_event(self.now + duration, _EV_SLEEP, t, t.chunk_token)

    def _do_spawn(self, t: VThread, op) -> None:
        child = self.spawn(op.body, name=op.name, parent=t)
        if self._oplog is not None:
            # spawn execution happens a spawn-cost continuation *after* the
            # parent yielded Spawn, so child-tid assignment order is a
            # scheduling fact, not derivable from yield order; record it
            # explicitly so replay creates children at the same instants
            self._oplog.append((child.tid, t.tid, _SPAWN_EXEC))
        t.send_value = child

    def _do_progress(self, t: VThread, op) -> None:
        name = op.name
        self.progress_counts[name] += 1
        if self.hook is not None:
            self.hook.on_progress(t, name)
        for obs in self.observers:
            obs.on_progress(t, name)

    def _do_push_frame(self, t: VThread, op) -> None:
        caller = t.current_func()
        t.stack.append(Frame(op.func, op.callsite))
        t.chain_cache = None
        for obs in self.observers:
            obs.on_call(t, op.func, caller)
        if self._call_overhead_ns:
            t.pending_cpu_ns += self._call_overhead_ns

    def _do_pop_frame(self, t: VThread, op) -> None:
        if not t.stack:
            raise SimulationError(f"{t.name}: PopFrame with empty stack")
        t.stack.pop()
        t.chain_cache = None

    def _do_set_spinning(self, t: VThread, op) -> None:
        self._set_spinning(t, op.spinning)

    # ------------------------------------------------------------------ exit

    def _begin_exit(self, t: VThread) -> None:
        """Thread generator exhausted; thread exit is a waking op (Table 1)."""
        if self.hook is not None:
            pre = self.hook.before_wake_op(t)
            if pre > 0:
                t.pending_pause_ns += pre
                t.continuation = (self._finish_exit, None)
                return
        self._finish_exit(t)

    def _finish_exit(self, t: VThread, _op=None) -> None:
        if t.spinning:
            self._set_spinning(t, False)
        if t.sample_buffer:
            self._deliver_batch(t, self.sampler.drain(t))
        self.running.discard(t)
        t.state = FINISHED
        self._alive -= 1
        for w in t.joiners:
            self._wake(w, waker=t, result=t.exit_value)
        t.joiners.clear()
        if self.hook is not None:
            self.hook.on_thread_exit(t)
        for obs in self.observers:
            obs.on_thread_exit(t)
