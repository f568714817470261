"""Span recorder for the traced run: wraps the public functions of each
layer from outside the program.

One span per wrapped call: name, layer, start, end, parent span and op
id, plus a few measured attributes (bytes, events).  Spans are installed
before any pool forks, so forked workers inherit the wrappers; a worker's
root spans take the span open in the parent at fork time as their parent.
The benchmark process keeps its spans in memory; every other process
(pool workers, the daemon) appends a finished top-level call's spans to
``spans-<pid>.jsonl`` in the trace directory, because pool workers exit
without running exit handlers.

Recording is on exactly while the wrappers are installed: :func:`install`
puts them in, :func:`uninstall` puts the original functions back, so an
untraced stretch of the run pays nothing for tracing.  Pool workers forked
while the wrappers are in inherit them; the daemon, a process of its own,
switches on a signal (:func:`switch_on_signal`, :func:`switch_remote`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import threading
import time
import warnings
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self, trace_dir: str, in_memory: bool) -> None:
        self.dir = trace_dir
        #: keep spans in this process (the benchmark) instead of flushing
        self.in_memory = in_memory
        self.spans: List[dict] = []
        #: op id stamped on new spans; forked workers inherit it
        self.op_id: Optional[int] = None
        self._local = threading.local()
        self._fork_parent: Optional[str] = None
        self._pending: List[dict] = []
        self._lock = threading.Lock()
        self._seq = itertools.count()

    # ------------------------------------------------------------- spans

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        stack = self._stack()
        self._fork_parent = stack[-1]["id"] if stack else None
        self._local.stack = []
        self.spans = []
        self._pending = []
        self.in_memory = False
        self._lock = threading.Lock()

    def open(self, name: str, layer: str) -> dict:
        stack = self._stack()
        parent = stack[-1]["id"] if stack else self._fork_parent
        span = {
            "id": f"{os.getpid()}.{next(self._seq)}",
            "parent": parent,
            "op": self.op_id,
            "name": name,
            "layer": layer,
            "pid": os.getpid(),
            "start": time.monotonic(),
            "end": None,
            "attrs": {},
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if self.in_memory:
            self.spans.append(span)
            return
        with self._lock:
            self._pending.append(span)
            if stack:
                return
            lines = "".join(json.dumps(s) + "\n" for s in self._pending)
            self._pending = []
        path = os.path.join(self.dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(lines)

    def event(self, name: str, layer: str) -> None:
        """A zero-length span (a counted occurrence, e.g. a retry)."""
        self.close(self.open(name, layer))

    def load_all(self) -> List[dict]:
        """This process's spans plus every flushed span file."""
        spans = list(self.spans)
        for name in sorted(os.listdir(self.dir)):
            if name.startswith("spans-") and name.endswith(".jsonl"):
                with open(os.path.join(self.dir, name), encoding="utf-8") as fh:
                    spans.extend(json.loads(line) for line in fh if line.strip())
        return spans


#: the tracer the installed wrappers record into
_active: Optional[Tracer] = None

#: (owner, attribute, original) of every replaced function, for uninstall
_replaced: List[Tuple[Any, str, Any]] = []

_fork_hook_registered = False


def _wrap(name: str, layer: str, fn: Callable,
          measure: Optional[Callable[..., Dict[str, Any]]] = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer = _active
        if tracer is None:  # a call that entered before uninstall
            return fn(*args, **kwargs)
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                span["attrs"].update(measure(args, kwargs, result))
            return result
        finally:
            tracer.close(span)

    return traced


def _run_attrs(args, kwargs, result) -> Dict[str, Any]:
    engine = getattr(result, "engine", None)
    return {
        "events": result.events_processed,
        "accel_loops": getattr(engine, "accel_loops", 0),
    }


def _len_attrs(args, kwargs, result) -> Dict[str, Any]:
    return {"bytes": len(result)}


def _in_len_attrs(args, kwargs, result) -> Dict[str, Any]:
    blob = args[-1] if args else kwargs.get("blob")
    return {"bytes": len(blob)}


def _dispatch_attrs(args, kwargs, result) -> Dict[str, Any]:
    tasks = args[0] if args else kwargs.get("tasks", [])
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
    return {
        "tasks": len(tasks),
        "jobs": jobs,
        # worker-measured compute; 0 when every run executed in-process
        "worker_s": sum(out.wall_s for out in result),
    }


def _replace(owner, attr: str, new) -> None:
    _replaced.append((owner, attr, vars(owner)[attr]))
    setattr(owner, attr, new)


def _wrap_function(module, attr: str, name: str, layer: str, measure=None) -> None:
    _replace(module, attr, _wrap(name, layer, getattr(module, attr), measure))


def _wrap_method(cls, attr: str, name: str, layer: str, measure=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        _replace(cls, attr, classmethod(_wrap(name, layer, raw.__func__, measure)))
    else:
        _replace(cls, attr, _wrap(name, layer, raw, measure))


def _after_fork_in_child() -> None:
    if _active is not None:
        _active._after_fork()


def install(tracer: Tracer) -> None:
    """Record into ``tracer`` from now on: wrap each layer's public entry
    points (a no-op but for the tracer when they are wrapped already).

    Functions the runner imported by name are replaced in the runner's
    namespace, where it looks them up.
    """
    global _active, _fork_hook_registered
    _active = tracer
    from repro.core.profile_data import ProfileData
    from repro.harness import checkpoint, runner
    from repro.harness.journal import SessionJournal
    from repro.harness.parallel import ParallelExecutionWarning
    from repro.harness.service.daemon import ServiceDaemon
    from repro.harness.service.results import ResultStore
    from repro.sim import snapshot
    from repro.sim.program import Program
    from repro.sim.snapshot import EngineSnapshot

    if _replaced:
        return
    if not _fork_hook_registered:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _fork_hook_registered = True
    _wrap_method(Program, "run", "sim.run", "sim", _run_attrs)
    _wrap_method(Program, "resume", "sim.resume", "sim", _run_attrs)
    _wrap_function(snapshot, "restore", "checkpoint.restore", "checkpoint")
    _wrap_function(checkpoint, "execute_run", "checkpoint.execute_run", "checkpoint")
    _wrap_method(EngineSnapshot, "to_bytes", "snapshot.encode", "snapshot", _len_attrs)
    _wrap_method(EngineSnapshot, "from_bytes", "snapshot.decode", "snapshot",
                 _in_len_attrs)
    _wrap_method(ProfileData, "to_bytes", "wire.encode", "wire", _len_attrs)
    _wrap_method(ProfileData, "from_bytes", "wire.decode", "wire", _in_len_attrs)
    _wrap_function(runner, "run_profile_session", "runner.session", "runner")
    _wrap_function(runner, "execute_tasks", "parallel.execute_tasks", "parallel",
                   _dispatch_attrs)
    _wrap_function(runner, "build_causal_profile", "analysis.build", "analysis")
    for attr in ("record_run", "record_failure"):
        _wrap_method(SessionJournal, attr, "journal.append", "journal")
    for attr in ("create", "resume"):
        _wrap_method(SessionJournal, attr, f"journal.{attr}", "journal")
    _wrap_method(ResultStore, "get", "service.store_get", "service")
    _wrap_method(ResultStore, "put", "service.store_put", "service")
    _wrap_method(ServiceDaemon, "submit", "service.submit", "service")

    # every retry warns once; the default filter would show (and count)
    # only the first per call site.  The filter stays after uninstall.
    warnings.simplefilter("always", ParallelExecutionWarning)
    show = warnings.showwarning

    def counting_showwarning(message, category, *args, **kwargs):
        tracer = _active
        if issubclass(category, ParallelExecutionWarning) and tracer is not None:
            tracer.event("parallel.retry", "parallel")
        return show(message, category, *args, **kwargs)

    _replace(warnings, "showwarning", counting_showwarning)


def uninstall() -> None:
    """Stop recording and put every original function back."""
    global _active
    _active = None
    while _replaced:
        owner, attr, original = _replaced.pop()
        setattr(owner, attr, original)


# ------------------------------------------------ switching another process


def _ack_path(trace_dir: str, pid: int) -> str:
    return os.path.join(trace_dir, f"switched-{pid}")


def switch_on_signal(tracer: Tracer) -> None:
    """In a separate process (the daemon): ``SIGUSR1`` installs the
    wrappers, ``SIGUSR2`` removes them, and each switch is acknowledged
    in a file of the trace directory."""
    ack = _ack_path(tracer.dir, os.getpid())

    def switch(signum, frame):
        on = signum == signal.SIGUSR1
        if on:
            install(tracer)
        else:
            uninstall()
        with open(ack + ".tmp", "w") as fh:
            fh.write("1" if on else "0")
        os.replace(ack + ".tmp", ack)

    signal.signal(signal.SIGUSR1, switch)
    signal.signal(signal.SIGUSR2, switch)


def switch_remote(trace_dir: str, pid: int, on: bool, timeout_s: float = 30.0) -> None:
    """Switch tracing in process ``pid`` (set up by :func:`switch_on_signal`)
    and wait until it has acknowledged."""
    ack = _ack_path(trace_dir, pid)
    try:
        os.unlink(ack)
    except FileNotFoundError:
        pass
    os.kill(pid, signal.SIGUSR1 if on else signal.SIGUSR2)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with open(ack) as fh:
                if fh.read() == ("1" if on else "0"):
                    return
        except FileNotFoundError:
            pass
        time.sleep(0.005)
    raise RuntimeError(f"process {pid} did not switch tracing {'on' if on else 'off'}")
