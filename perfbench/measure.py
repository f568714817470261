"""Sampling rules shared by every workload: names, percentiles, failures,
and the self-time arithmetic of the traced run.

Everything here is pure (no repro import, no clock), so the rules are
unit-tested on their own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: metric, layer and workload names: letters, digits, ``_``, ``.``, ``-``;
#: first character a letter or digit; at most 64 characters
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")

#: tail percentiles a run may report, lowest first
TAIL_LADDER = (50, 75, 90, 95, 99)

#: a tail percentile is reported only with at least this many ops beyond it
MIN_BEYOND = 10

#: highest tail percentile reported for ops and for hits (see
#: :func:`tail_percentile`)
OP_TAIL_CAP = 75
HIT_TAIL_CAP = 90


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def rank_index(n: int, p: float) -> int:
    """Nearest-rank index of the ``p``-th percentile in ``n`` sorted values."""
    return max(0, math.ceil(p * n / 100.0) - 1)


def beyond(n: int, p: float) -> int:
    """How many of ``n`` values lie strictly above the ``p``-th percentile."""
    return n - rank_index(n, p) - 1


def tail_percentile(n: int, cap: int) -> Optional[int]:
    """The highest ladder percentile, at most ``cap``, that still has
    :data:`MIN_BEYOND` values beyond it; ``None`` when even the median
    has fewer.

    The cap keeps the reported percentile fixed across commits whose op
    counts differ: a faster commit must not report a higher percentile.
    """
    best = None
    for p in TAIL_LADDER:
        if p <= cap and beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def percentile(sorted_values: Sequence[float], p: float) -> float:
    return sorted_values[rank_index(len(sorted_values), p)]


@dataclass
class LatencySummary:
    n: int
    p50: Optional[float]
    tail: Optional[float]
    tail_pct: Optional[int]


def summarize_latencies(values: Sequence[float], cap: int) -> LatencySummary:
    """Median and capped tail of successful ops' latencies.

    The median also needs :data:`MIN_BEYOND` values above it, so no
    timing ever comes from a handful of samples.
    """
    vals = sorted(values)
    pct = tail_percentile(len(vals), cap)
    if pct is None:
        return LatencySummary(len(vals), None, None, None)
    return LatencySummary(len(vals), percentile(vals, 50), percentile(vals, pct), pct)


@dataclass
class OpRecord:
    """One timed user operation."""

    kind: str  # "op" (must execute) or "hit" (served from a stored result)
    latency_s: float
    ok: bool
    #: why the op failed: "error" (exception), "check" (an output check
    #: failed) or "shed" (the service refused it)
    failure: Optional[str] = None
    #: service writes: the no-wait submit's round trip (admission)
    admit_s: Optional[float] = None


def count_outcomes(records: Iterable[OpRecord]) -> Tuple[int, int, Dict[str, int]]:
    """(attempted, failed, failures by reason) over every kind of op."""
    attempted = failed = 0
    reasons: Dict[str, int] = {}
    for rec in records:
        attempted += 1
        if not rec.ok:
            failed += 1
            reason = rec.failure or "error"
            reasons[reason] = reasons.get(reason, 0) + 1
    return attempted, failed, reasons


def ok_latencies(records: Iterable[OpRecord], kind: str) -> List[float]:
    return [r.latency_s for r in records if r.kind == kind and r.ok]


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time of every span: its duration minus the part of its
    interval that its children cover (children may overlap each other,
    e.g. two pool workers under one dispatch span, so their union counts
    once)."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        dur = s["end"] - s["start"]
        out[s["id"]] = dur - covered(children.get(s["id"], ()), s["start"], s["end"])
    return out


def layer_self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Summed self time per layer."""
    per_span = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s["layer"]] = out.get(s["layer"], 0.0) + per_span[s["id"]]
    return out
