"""Checkpoint store and warm-run orchestration for the fast-forward path.

The snapshot machinery (:mod:`repro.sim.snapshot`) captures one run's state
mid-flight; this module decides *which* runs get to reuse those captures.
Because run ``i`` of a session is always seeded ``base_seed + i``, a run is
bit-identical to any earlier execution of the same (session configuration,
seed) pair — so the store keys checkpoints by a canonical *run fingerprint*
(derived with the same :func:`~repro.harness.journal.canonical` machinery
the journal uses) plus the per-run seed.

Storage is two-level:

* a process-global in-memory LRU, so repeated sessions in one process
  (perfbench warm sessions, doctor identity checks, back-to-back CLI sessions)
  resume without touching disk;
* an optional on-disk cache directory, shared between the parent and pool
  workers and across processes.  The directory carries a ``MANIFEST.json``
  recording the run fingerprint and snapshot version; on mismatch the
  cache is *invalidated with a warning* — a stale checkpoint is never
  silently reused (it would poison bit-identity guarantees).

:func:`execute_run` is the single entry point the executor uses: resume
from a supplied or stored snapshot when possible, fall back to a cold run
(rebuilding the program from scratch — a partially-replayed program has
dirty closures), and record fresh checkpoints on the way through.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import warnings
from collections import OrderedDict
from dataclasses import replace
from typing import Any, Callable, Optional, Tuple

try:  # advisory cross-process locking; POSIX-only, degrades to none
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.harness.journal import canonical
from repro.sim.snapshot import (
    SNAPSHOT_VERSION,
    EngineSnapshot,
    Recorder,
    SnapshotError,
)

__all__ = [
    "CheckpointStore",
    "SnapshotRef",
    "SnapshotWire",
    "checkpoint_fingerprint",
    "execute_run",
    "resolve_shipped",
    "clear_memory_cache",
]

_MANIFEST = "MANIFEST.json"
_MANIFEST_SCHEMA = "checkpoint-cache/v1"

#: process-global LRU of deepest checkpoints, keyed (fingerprint, seed).
#: Pool workers forked from a warm parent inherit this populated — the
#: parallel executor ships :class:`SnapshotRef` markers instead of payloads
#: whenever that is the case, so warm fan-out costs no snapshot bytes.
_MEMORY: "OrderedDict[Tuple[str, int], EngineSnapshot]" = OrderedDict()
_MEMORY_CAP = 64

#: process-global store instances, keyed (fingerprint, directory): opening
#: a directory validates its manifest under a file lock, which a pool
#: worker must pay once per session, not once per task
_SHARED_STORES: dict = {}


class CheckpointCacheWarning(UserWarning):
    """A checkpoint cache was stale, unreadable, or unwritable."""


@contextlib.contextmanager
def _dir_lock(directory: str):
    """Advisory exclusive lock on a cache directory's ``.lock`` file.

    Serializes manifest validation/initialization across processes: two
    workers opening the same cache directory concurrently would otherwise
    interleave manifest writes (and the loser would see a half-initialized
    directory and spuriously invalidate it).  Checkpoint *payload* writes
    do not need the lock — per-file ``os.replace`` is already atomic and
    snapshots are deterministic per (fingerprint, seed), so concurrent
    populates are last-writer-wins with identical bytes.

    Degrades to no locking where ``fcntl`` is unavailable or the lock file
    cannot be created; the caller's own failure handling still applies.
    """
    if fcntl is None:
        yield
        return
    fh = None
    try:
        fh = open(os.path.join(directory, ".lock"), "a+")
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
    except OSError:
        fh = None  # locking is best-effort; fall through unlocked
    try:
        yield
    finally:
        if fh is not None:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            fh.close()


def _remember(key: str, seed: int, snap: EngineSnapshot) -> None:
    """Insert into the memory LRU, evicting the oldest entries past the cap."""
    _MEMORY[(key, seed)] = snap
    _MEMORY.move_to_end((key, seed))
    while len(_MEMORY) > _MEMORY_CAP:
        _MEMORY.popitem(last=False)


def clear_memory_cache() -> None:
    """Drop every in-memory checkpoint (tests, and benchmark cold baselines)."""
    _MEMORY.clear()
    _SHARED_STORES.clear()


def checkpoint_fingerprint(spec, coz_config, faults) -> str:
    """Canonical fingerprint of everything that shapes a run's trajectory.

    The per-run seed is normalized out (it is part of the store key
    instead), as is the observational ``audit`` flag — audited sessions
    never checkpoint anyway.  Only registry-referenced apps are
    fingerprintable: an unregistered ``<program>`` spec has no stable
    identity, and colliding checkpoints would be catastrophically wrong.
    """
    if spec.registry_ref is None:
        raise ValueError("only registry-referenced apps can be checkpointed")
    payload = {
        "kind": "checkpoint-run",
        "snapshot_version": SNAPSHOT_VERSION,
        "app": canonical(spec.registry_ref),
        "coz_config": canonical(replace(coz_config, seed=0, audit=False)),
        "faults": canonical(faults),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CheckpointStore:
    """Deepest-checkpoint store for one run fingerprint.

    ``get``/``put`` address snapshots by seed; the fingerprint is fixed at
    construction.  All disk failures degrade to warnings — a checkpoint
    store must never be able to fail a profiling session.
    """

    def __init__(self, key: str, directory: Optional[str] = None) -> None:
        self.key = key
        self.directory = directory
        if directory is not None:
            self._open_directory()

    @classmethod
    def shared(cls, key: str, directory: Optional[str] = None) -> "CheckpointStore":
        """Process-cached store for ``(key, directory)``.

        Construction with a directory validates the on-disk manifest under
        an advisory lock; the shared instance pays that once per process
        (a pool worker otherwise re-validates on every task).  The cache is
        dropped by :func:`clear_memory_cache`.
        """
        cache_key = (key, directory)
        store = _SHARED_STORES.get(cache_key)
        if store is None:
            store = cls(key, directory=directory)
            _SHARED_STORES[cache_key] = store
        return store

    # ------------------------------------------------------------- memory

    def get(self, seed: int) -> Optional[EngineSnapshot]:
        entry = _MEMORY.get((self.key, seed))
        if entry is not None:
            _MEMORY.move_to_end((self.key, seed))
            return entry
        return self._disk_get(seed)

    def put(self, seed: int, snapshot: EngineSnapshot) -> None:
        _remember(self.key, seed, snapshot)
        self._disk_put(seed, snapshot)

    # --------------------------------------------------------------- disk

    def _open_directory(self) -> None:
        """Validate (or initialize) the on-disk cache directory.

        A manifest recording a *different* fingerprint or snapshot version
        means the cache was built for another session configuration or an
        older capture layout: warn, delete every cached checkpoint, and
        rewrite the manifest.  Stale checkpoints are never silently
        reused.
        """
        d = self.directory
        try:
            os.makedirs(d, exist_ok=True)
            # the lock serializes validate-then-initialize across processes:
            # the loser of a concurrent open blocks until the winner's
            # manifest is on disk, sees it match, and touches nothing
            with _dir_lock(d):
                manifest_path = os.path.join(d, _MANIFEST)
                manifest = None
                if os.path.exists(manifest_path):
                    try:
                        with open(manifest_path, "r", encoding="utf-8") as fh:
                            manifest = json.load(fh)
                    except (OSError, ValueError):
                        manifest = {}  # unreadable counts as a mismatch
                expected = {
                    "schema": _MANIFEST_SCHEMA,
                    "fingerprint": self.key,
                    "snapshot_version": SNAPSHOT_VERSION,
                }
                if manifest is not None and manifest != expected:
                    warnings.warn(
                        f"checkpoint cache {d!r} was built for a different "
                        f"session configuration or snapshot version; "
                        f"invalidating it",
                        CheckpointCacheWarning,
                        stacklevel=4,
                    )
                    for name in os.listdir(d):
                        if name.endswith(".ckpt"):
                            try:
                                os.unlink(os.path.join(d, name))
                            except OSError:
                                pass
                if manifest != expected:
                    tmp = f"{manifest_path}.tmp.{os.getpid()}"
                    with open(tmp, "w", encoding="utf-8") as fh:
                        json.dump(expected, fh, indent=2)
                        fh.write("\n")
                    os.replace(tmp, manifest_path)
        except OSError as exc:
            warnings.warn(
                f"checkpoint cache {d!r} unusable ({exc}); "
                f"running without on-disk checkpoints",
                CheckpointCacheWarning,
                stacklevel=4,
            )
            self.directory = None

    def _path(self, seed: int) -> str:
        return os.path.join(self.directory, f"seed-{seed}.ckpt")

    def _disk_get(self, seed: int) -> Optional[EngineSnapshot]:
        if self.directory is None:
            return None
        path = self._path(seed)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as fh:
                snap = EngineSnapshot.from_bytes(fh.read())
        except (OSError, SnapshotError) as exc:
            warnings.warn(
                f"discarding unreadable checkpoint {path!r} ({exc})",
                CheckpointCacheWarning,
                stacklevel=3,
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        _remember(self.key, seed, snap)
        return snap

    def _disk_put(self, seed: int, snapshot: EngineSnapshot) -> None:
        if self.directory is None:
            return
        path = self._path(seed)
        if os.path.exists(path):
            # snapshots are deterministic per (fingerprint, seed): a file
            # already on disk has the same bytes this writer would produce,
            # so a concurrent populate is first-writer-wins and the loser
            # skips the redundant pickling
            return
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(snapshot.to_bytes())
            os.replace(tmp, path)  # atomic: readers never see a torn file
        except (OSError, pickle.PicklingError) as exc:
            warnings.warn(
                f"could not write checkpoint {path!r} ({exc})",
                CheckpointCacheWarning,
                stacklevel=3,
            )
            try:
                os.unlink(tmp)
            except OSError:
                pass


# ------------------------------------------------------- snapshot shipping


class SnapshotRef:
    """Zero-payload stand-in for a snapshot a pool worker already has.

    On fork platforms, workers inherit the parent's populated
    :data:`_MEMORY` at pool-creation time, so shipping the snapshot again
    is pure waste — the parallel executor sends this (fingerprint, seed)
    marker instead.  Resolution misses (LRU eviction raced the fork, or an
    exotic start method) degrade to the task's disk store or a cold run,
    both bit-identical.
    """

    __slots__ = ("key", "seed")

    def __init__(self, key: str, seed: int) -> None:
        self.key = key
        self.seed = seed

    def __getstate__(self):
        return (self.key, self.seed)

    def __setstate__(self, state):
        self.key, self.seed = state

    def resolve(self, store: Optional[CheckpointStore] = None):
        snap = _MEMORY.get((self.key, self.seed))
        if snap is not None:
            _MEMORY.move_to_end((self.key, self.seed))
            return snap
        if store is not None:
            return store.get(self.seed)
        return None


class SnapshotWire:
    """Pre-encoded snapshot bytes for boundaries that cannot inherit memory.

    The parent encodes once (:meth:`EngineSnapshot.to_bytes`); every
    pickle of the wrapper afterwards is a plain bytes copy, and the worker
    decodes once per (fingerprint, seed) into the process-global memory
    cache, so batch retries and later tasks hit it warm.
    """

    __slots__ = ("key", "seed", "blob")

    def __init__(self, blob: bytes, key: Optional[str] = None, seed: int = 0) -> None:
        self.blob = blob
        self.key = key
        self.seed = seed

    def __getstate__(self):
        return (self.blob, self.key, self.seed)

    def __setstate__(self, state):
        self.blob, self.key, self.seed = state

    @classmethod
    def from_snapshot(
        cls, snap: EngineSnapshot, key: Optional[str] = None, seed: int = 0
    ) -> "SnapshotWire":
        return cls(snap.to_bytes(), key=key, seed=seed)

    def resolve(self, store: Optional[CheckpointStore] = None):
        if self.key is not None:
            cached = _MEMORY.get((self.key, self.seed))
            if cached is not None:
                _MEMORY.move_to_end((self.key, self.seed))
                return cached
        try:
            snap = EngineSnapshot.from_bytes(self.blob)
        except SnapshotError as exc:
            warnings.warn(
                f"discarding unreadable shipped snapshot ({exc})",
                CheckpointCacheWarning,
                stacklevel=3,
            )
            return store.get(self.seed) if store is not None else None
        if self.key is not None:
            _remember(self.key, self.seed, snap)
        return snap


def resolve_shipped(obj, store: Optional[CheckpointStore] = None):
    """Turn whatever rode in ``RunTask.snapshot`` into a live snapshot.

    Accepts ``None``, a live :class:`EngineSnapshot`, or either shipping
    wrapper; returns a snapshot or ``None`` (cold run).  The task's store
    is the fallback for unresolvable refs.
    """
    if obj is None or isinstance(obj, EngineSnapshot):
        return obj
    if isinstance(obj, (SnapshotRef, SnapshotWire)):
        return obj.resolve(store)
    return None


def snapshot_in_memory(key: str, seed: int) -> bool:
    """True when the process-global cache holds this (fingerprint, seed)."""
    return (key, seed) in _MEMORY


# ------------------------------------------------------------ orchestration


def execute_run(
    build: Callable[[], Tuple[Any, Any, Any]],
    seed: int,
    snapshot: Optional[EngineSnapshot] = None,
    store: Optional[CheckpointStore] = None,
):
    """Execute one run warm if possible, cold (and recording) otherwise.

    ``build`` returns a fresh ``(program, profiler_hook, run_config)``
    triple and must be cheap and repeatable: a failed resume re-invokes it,
    because the snapshot replay partially re-executes the program's
    generators and a dirtied program cannot simply be rerun.

    Returns ``(RunResult, profiler_hook)`` — the hook actually used, which
    on the warm path carries the restored profile state.
    """
    program, profiler, run_config = build()
    if snapshot is None and store is not None:
        snapshot = store.get(seed)
    if snapshot is not None:
        try:
            result = program.resume(snapshot, hook=profiler, config=run_config)
            return result, profiler
        except SnapshotError as exc:
            warnings.warn(
                f"checkpoint resume failed ({exc}); rerunning cold",
                CheckpointCacheWarning,
                stacklevel=2,
            )
            program, profiler, run_config = build()
    if store is None:
        return program.run(hook=profiler, config=run_config), profiler
    recorder = Recorder()
    try:
        result = program.run(hook=profiler, config=run_config, recorder=recorder)
    finally:
        # snapshots taken before a deterministic failure are still valid —
        # a resume reproduces the failure identically, which is exactly
        # what bit-identity demands
        if recorder.snapshots:
            try:
                store.put(seed, recorder.snapshots[-1])
            except Exception as exc:  # the store must never fail a session
                warnings.warn(
                    f"could not store checkpoint for seed {seed} ({exc})",
                    CheckpointCacheWarning,
                    stacklevel=2,
                )
    return result, profiler
