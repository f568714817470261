"""Content-addressed store of completed session results.

Results are addressed by job fingerprint, so "cache hit" *means*
"bit-identical session": two specs with the same fingerprint would merge
the same runs in the same order with the same seeds.  Every stored
document is pure content — no timestamps, no tenant, no job id — so a
byte comparison of two result files is a determinism check, and the
restart-recovery test can assert a SIGKILL'd session resumed to exactly
the bytes an uninterrupted one produced.

Layout mirrors the checkpoint store: an in-memory LRU in front of one
content-addressed file per fingerprint, written atomically via
``os.replace`` and skipped when already present (first-writer-wins; the
content is deterministic, so writers never disagree).  Deadline-partial
results are returned to waiters but **never** stored — a truncated
session must not shadow the full one a resubmit would complete.

On-disk format: ``<dir>/<fp>.json``, the full document with sorted keys,
so stored results stay greppable.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

__all__ = ["ResultStore"]

#: in-memory entries kept per store (small: result docs are a few KB)
_MEMORY_CAP = 64


class ResultStore:
    """Thread-safe fingerprint-addressed result cache (memory + disk)."""

    def __init__(self, directory: Optional[str] = None,
                 memory_cap: int = _MEMORY_CAP) -> None:
        self.directory = directory
        self.memory_cap = memory_cap
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    def _json_path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f"{fingerprint}.json")

    # ------------------------------------------------------------- get/put

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            doc = self._memory.get(fingerprint)
            if doc is not None:
                self._memory.move_to_end(fingerprint)
                self.hits += 1
                return doc
        if self.directory is not None:
            try:
                with open(self._json_path(fingerprint), "r",
                          encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, ValueError):
                doc = None
            if isinstance(doc, dict):
                with self._lock:
                    self._remember(fingerprint, doc)
                    self.hits += 1
                return doc
        with self._lock:
            self.misses += 1
        return None

    def put(self, fingerprint: str, doc: Dict[str, Any]) -> None:
        with self._lock:
            self._remember(fingerprint, doc)
        if self.directory is None:
            return
        self._write_atomic(
            self._json_path(fingerprint),
            json.dumps(doc, sort_keys=True, separators=(",", ":"))
            .encode("utf-8"),
        )

    def _write_atomic(self, path: str, payload: bytes) -> None:
        if os.path.exists(path):
            return  # deterministic content: first writer already said it
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            # disk cache is an accelerator, not a correctness dependency
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _remember(self, fingerprint: str, doc: Dict[str, Any]) -> None:
        self._memory[fingerprint] = doc
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self.memory_cap:
            self._memory.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> Dict[str, Any]:
        return {
            "result_hits": self.hits,
            "result_misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }
