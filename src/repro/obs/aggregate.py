"""Cross-process telemetry aggregation for the worker pool.

`repro.obs` instruments one process; the worker pool runs the actual
compute in several.  This module is the bridge: a worker wraps each
task in its own :class:`~repro.obs.trace.Tracer`/profiler, condenses
what they collected into one small picklable :class:`TaskTelemetry`
(bounded span list + full summaries), and ships it back with the task
result.  The parent merges every report into a
:class:`FleetTelemetry` and — when the parent itself is tracing —
rebases the worker spans onto the parent clock and deposits them as
Chrome events with the *worker's* pid, so ``--trace-dir`` writes one
Perfetto-loadable trace with a lane group per process, nested in time
under the parent's ``parallel.map`` span.

Clock rebasing: span starts are relative to the recording tracer's
``epoch`` (a ``time.perf_counter()`` reading).  On Linux
``perf_counter`` is ``CLOCK_MONOTONIC``, which is system-wide, so a
worker span's parent-relative start is simply
``span.start + worker_epoch - parent_epoch``.

Span shipping is bounded: at most :func:`span_cap` spans (default
2000, env ``REPRO_WORKER_SPAN_CAP``) cross the pickle boundary per
task, keeping the longest spans (the structural parents); the
per-name summary is always complete, so fleet tables never lose
counts even when individual events are dropped from the trace.

Everything here is stdlib-only and operates on plain dicts/tuples —
the same layering rule as the rest of ``repro.obs``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .trace import Tracer

#: ``(name, start, duration, tid, depth)`` — args are dropped from
#: shipped spans; they are free-form and may not pickle compactly.
SpanTuple = Tuple[str, float, float, int, int]

DEFAULT_SPAN_CAP = 2000
SPAN_CAP_ENV = "REPRO_WORKER_SPAN_CAP"

ENGINE_FIELDS = ("forward_calls", "forward_masks", "forward_seconds",
                 "gradient_calls", "gradient_masks", "gradient_seconds")

#: Engine counter -> the span name its call count must reconcile with.
RECONCILE_SPANS = {"forward_calls": "litho.forward",
                   "gradient_calls": "litho.adjoint"}


#: This process's pid, for the per-task telemetry; forked workers
#: refresh it (``os.getpid`` is a system call per task otherwise).
_PID = os.getpid()


def _refresh_pid() -> None:
    global _PID
    _PID = os.getpid()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_refresh_pid)


def span_cap() -> int:
    """Max spans shipped per task (``REPRO_WORKER_SPAN_CAP``, >= 0)."""
    raw = os.environ.get(SPAN_CAP_ENV, "")
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_SPAN_CAP


@dataclass
class TaskTelemetry:
    """One task's worth of worker-side observability, picklable.

    ``spans`` is bounded (see :func:`span_cap`); ``span_summary`` is
    always the complete per-name aggregate.  ``engine_delta`` is the
    task's change in the worker's process-wide litho counters
    (``LithoEngine.stats``) and ships with *every* task (six numbers),
    tracing enabled or not — it is what lets ``repro table2 --workers
    N`` reconcile with serial runs.
    """

    pid: int = 0
    epoch: float = 0.0
    seconds: float = 0.0
    spans: List[SpanTuple] = field(default_factory=list)
    span_summary: Dict[str, Dict[str, float]] = field(default_factory=dict)
    dropped_spans: int = 0
    op_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    module_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    engine_delta: Dict[str, float] = field(default_factory=dict)


def capture_task(tracer: Optional[Tracer], profiler: Optional[Any],
                 engine_delta: Dict[str, float], seconds: float,
                 cap: Optional[int] = None) -> TaskTelemetry:
    """Condense a finished task's tracer/profiler into telemetry.

    Worker-side.  ``tracer``/``profiler`` may be ``None`` (telemetry
    shipping off) — the engine delta still ships.  The telemetry keeps
    ``engine_delta`` itself, not a copy: callers pass a freshly built
    dict.
    """
    # Every field positionally: the pool runs this once per task, and
    # the dataclass default factories cost as much as the rest of it.
    telemetry = TaskTelemetry(_PID, 0.0, seconds, [], {}, 0, {}, {},
                              engine_delta)
    if tracer is not None:
        telemetry.epoch = tracer.epoch
        telemetry.span_summary = tracer.summary()
        spans = tracer.spans()
        limit = span_cap() if cap is None else cap
        if len(spans) > limit:
            keep = sorted(spans, key=lambda s: -s.duration)[:limit]
            telemetry.dropped_spans = len(spans) - limit
            spans = keep
        telemetry.spans = [(s.name, s.start, s.duration, s.tid, s.depth)
                           for s in spans]
    if profiler is not None:
        telemetry.op_stats = profiler.op_stats()
        telemetry.module_stats = profiler.module_stats()
    return telemetry


# ----------------------------------------------------------------------
# Parent-side: Chrome event conversion
# ----------------------------------------------------------------------
def process_metadata_event(pid: int, label: str) -> Dict[str, Any]:
    """Perfetto ``process_name`` metadata event for a worker lane."""
    return {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label}}


def chrome_events(telemetry: TaskTelemetry,
                  parent_epoch: float) -> List[Dict[str, Any]]:
    """Worker spans as Chrome events on the parent's clock.

    Events keep the worker's real pid and tid, so Perfetto shows one
    process group per worker, time-aligned with (and nested under)
    the parent's ``parallel.map`` span.
    """
    offset = telemetry.epoch - parent_epoch
    return [{
        "name": name,
        "cat": "repro",
        "ph": "X",
        "ts": (start + offset) * 1e6,
        "dur": duration * 1e6,
        "pid": telemetry.pid,
        "tid": tid,
        "args": {"depth": depth},
    } for name, start, duration, tid, depth in telemetry.spans]


# ----------------------------------------------------------------------
# Parent-side: fleet aggregation
# ----------------------------------------------------------------------
def _merge_numeric(into: Dict[str, Dict[str, float]],
                   other: Dict[str, Dict[str, float]]) -> None:
    for name, stats in other.items():
        entry = into.setdefault(name, {})
        for key, value in stats.items():
            if isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0) + value
            else:  # pragma: no cover - non-numeric fields pass through
                entry.setdefault(key, value)


@dataclass
class FleetTelemetry:
    """Running merge of every :class:`TaskTelemetry` a pool has seen."""

    tasks: int = 0
    dropped_spans: int = 0
    engine_totals: Dict[str, float] = field(
        default_factory=lambda: {name: 0.0 for name in ENGINE_FIELDS})
    span_summary: Dict[str, Dict[str, float]] = field(default_factory=dict)
    op_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    module_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: per-worker breakdowns (keyed by pid) of the two merges above —
    #: what the ``worker_span_summary`` telemetry records are built from.
    pid_span_summary: Dict[int, Dict[str, Dict[str, float]]] = field(
        default_factory=dict)
    pid_engine: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def add(self, telemetry: Optional[TaskTelemetry]) -> None:
        if telemetry is None:
            return
        self.tasks += 1
        self.dropped_spans += telemetry.dropped_spans
        for name, value in telemetry.engine_delta.items():
            self.engine_totals[name] = (
                self.engine_totals.get(name, 0.0) + value)
        if telemetry.engine_delta:
            pid_totals = self.pid_engine.setdefault(telemetry.pid, {})
            for name, value in telemetry.engine_delta.items():
                pid_totals[name] = pid_totals.get(name, 0.0) + value
        _merge_numeric(self.span_summary, telemetry.span_summary)
        if telemetry.span_summary:
            _merge_numeric(
                self.pid_span_summary.setdefault(telemetry.pid, {}),
                telemetry.span_summary)
        _merge_numeric(self.op_stats, telemetry.op_stats)
        _merge_numeric(self.module_stats, telemetry.module_stats)

    # -- derived views --------------------------------------------------
    @property
    def engine_seconds(self) -> float:
        return (self.engine_totals.get("forward_seconds", 0.0)
                + self.engine_totals.get("gradient_seconds", 0.0))

    def merged_summary(self, parent_summary: Optional[Dict] = None
                       ) -> Dict[str, Dict[str, float]]:
        """Worker span summary merged with a parent tracer summary."""
        merged: Dict[str, Dict[str, float]] = {}
        _merge_numeric(merged, self.span_summary)
        if parent_summary:
            _merge_numeric(merged, parent_summary)
        return merged

    def reconcile(self, parent_summary: Optional[Dict] = None
                  ) -> Dict[str, Dict[str, float]]:
        """Fleet engine counters vs. merged litho span counts, 1:1."""
        return reconcile(self.engine_totals,
                         self.merged_summary(parent_summary))


def reconcile(engine_totals: Dict[str, float],
              span_summary: Dict[str, Dict[str, float]]
              ) -> Dict[str, Dict[str, float]]:
    """Engine call counters vs. litho span counts, 1:1.

    Returns ``{counter: {stats, spans, match}}`` — the fleet-level
    version of the serial EngineStats/tracer reconciliation contract
    (forward_calls == litho.forward count, gradient_calls ==
    litho.adjoint count).  Pass combined totals (worker + parent
    deltas) against a merged summary to check a whole run.
    """
    out: Dict[str, Dict[str, float]] = {}
    for counter, span_name in RECONCILE_SPANS.items():
        stats_count = int(engine_totals.get(counter, 0))
        span_count = int(span_summary.get(span_name, {}).get("count", 0))
        out[counter] = {"stats": stats_count, "spans": span_count,
                        "match": stats_count == span_count}
    return out


def format_engine_table(totals: Dict[str, float],
                        title: str = "fleet litho engine") -> str:
    """Terminal table of summed engine counters (profile/table2)."""
    header = (f"{'stage':<10}  {'calls':>8}  {'masks':>8}  "
              f"{'seconds':>9}  {'masks/s':>9}")
    lines = [f"{title}:", header, "-" * len(header)]
    for stage in ("forward", "gradient"):
        calls = int(totals.get(f"{stage}_calls", 0))
        masks = int(totals.get(f"{stage}_masks", 0))
        seconds = float(totals.get(f"{stage}_seconds", 0.0))
        rate = masks / seconds if seconds > 0 else 0.0
        lines.append(f"{stage:<10}  {calls:>8d}  {masks:>8d}  "
                     f"{seconds:>9.3f}  {rate:>9.1f}")
    return "\n".join(lines)
