"""Hierarchical span tracer with Chrome trace-event export.

The repo's headline claims are runtime claims (Table 2 reports GAN-OPC
at ~0.49x ILT runtime), so the first observability primitive is a way
to see *where* wall-clock goes: :func:`span` opens a named, nested,
thread-safe timing span around any region —

    from repro.obs import trace

    with trace.span("ilt.step", iteration=i):
        ...

Spans are recorded only while a :class:`Tracer` is installed via
:func:`enable` (or the :func:`tracing` context manager).  When tracing
is disabled — the default — :func:`span` returns a shared no-op
context manager, so instrumentation left in hot paths costs one global
read plus an empty ``with`` block (~sub-microsecond; the overhead
guard in ``tests/obs/test_overhead.py`` pins it below 5% of an engine
forward call).

Finished spans leave the tracer two ways:

* **Chrome trace-event JSON** (:meth:`Tracer.write_chrome_trace`) —
  one complete (``"ph": "X"``) event per span, loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``;
* **run records** — given a ``logger`` (the run's
  :class:`~repro.runtime.telemetry.RunLogger`), the tracer writes every
  finished span into the run's stream as one schema-validated ``span``
  record (name, start offset, duration, thread, depth, numeric
  arguments) the moment it closes.  The logger flushes every record,
  so a process that exits without :func:`disable` loses no finished
  span.

Span nesting is tracked per thread: depth and parent containment come
from a thread-local stack, so concurrent threads trace independently
and the Chrome export separates them by ``tid``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional


class Span:
    """One finished timing span (times in seconds from the tracer epoch)."""

    __slots__ = ("name", "start", "duration", "tid", "depth", "args")

    def __init__(self, name: str, start: float, duration: float, tid: int,
                 depth: int, args: Dict[str, Any]):
        self.name = name
        self.start = start
        self.duration = duration
        self.tid = tid
        self.depth = depth
        self.args = args

    @property
    def end(self) -> float:
        return self.start + self.duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, start={self.start:.6f}, "
                f"dur={self.duration:.6f}, depth={self.depth})")


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Live span: pushes onto the thread-local stack, records on exit."""

    __slots__ = ("_tracer", "_name", "_args", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_SpanContext":
        stack = self._tracer._stack()
        self._depth = len(stack)
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        duration = time.perf_counter() - self._start
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._finish(Span(
            self._name, self._start - self._tracer.epoch, duration,
            threading.get_ident(), self._depth, self._args))
        return False


class Tracer:
    """Collects :class:`Span` records; thread-safe.

    Parameters
    ----------
    logger:
        Optional :class:`~repro.runtime.telemetry.RunLogger`; every
        finished span is written to it as one ``span`` record the
        moment it closes.  Span arguments must then be numbers.
    """

    def __init__(self, logger: Optional[Any] = None):
        self.epoch = time.perf_counter()
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._external: List[Dict[str, Any]] = []
        self._local = threading.local()
        self.logger = logger

    # -- span recording -------------------------------------------------
    def span(self, name: str, **args) -> _SpanContext:
        """Open a nested span; use as a context manager."""
        return _SpanContext(self, name, args)

    def _stack(self) -> List[_SpanContext]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if self.logger is not None:
                self.logger.event(
                    "span", name=span.name, start=span.start,
                    duration=span.duration, tid=span.tid,
                    depth=span.depth, args=span.args)

    # -- external (cross-process) events --------------------------------
    def add_external_events(self, events: List[Dict[str, Any]]) -> None:
        """Merge already-formed Chrome trace events from another process.

        Used by the worker-pool telemetry path: finished worker spans
        are converted (with their real pid/tid and the parent's epoch)
        by :mod:`repro.obs.aggregate` and deposited here so a single
        :meth:`write_chrome_trace` emits one fleet-wide trace.
        """
        with self._lock:
            self._external.extend(events)

    def external_events(self) -> List[Dict[str, Any]]:
        """Snapshot of merged cross-process Chrome events."""
        with self._lock:
            return list(self._external)

    # -- inspection -----------------------------------------------------
    def spans(self) -> List[Span]:
        """Snapshot list of finished spans (insertion order)."""
        with self._lock:
            return list(self._spans)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate per span name: ``{name: {count, seconds}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans():
            entry = out.setdefault(span.name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += span.duration
        return out

    def wall_seconds(self) -> float:
        """Seconds elapsed since the tracer was constructed."""
        return time.perf_counter() - self.epoch

    def top_level_seconds(self) -> float:
        """Total duration of depth-0 spans (non-overlapping per thread)."""
        return sum(s.duration for s in self.spans() if s.depth == 0)

    def coverage(self, wall_seconds: Optional[float] = None) -> float:
        """Fraction of wall time accounted for by top-level spans."""
        wall = self.wall_seconds() if wall_seconds is None else wall_seconds
        if wall <= 0.0:
            return 0.0
        return self.top_level_seconds() / wall

    # -- export ---------------------------------------------------------
    def to_chrome(self) -> Dict[str, Any]:
        """Chrome trace-event representation (Perfetto-loadable).

        Includes any cross-process events merged in via
        :meth:`add_external_events`; each event keeps the pid of the
        process that produced it, so Perfetto renders one lane group
        per worker next to this process's own spans.
        """
        pid = self.pid
        events: List[Dict[str, Any]] = [{
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": span.tid,
            "args": span.args,
        } for span in self.spans()]
        events.extend(self.external_events())
        return {"displayTimeUnit": "ms", "traceEvents": events}

    def write_chrome_trace(self, path: str) -> str:
        """Write the Chrome trace JSON to ``path`` and return it."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(), fh)
        return path


# ----------------------------------------------------------------------
# Module-level API — the form instrumentation points use.
# ----------------------------------------------------------------------
_ACTIVE: Optional[Tracer] = None


def reset_for_child() -> None:
    """Drop tracer state inherited across ``fork``.

    A forked worker inherits the parent's active tracer *object* —
    including its logger, whose open file description it shares with
    the parent.  Spans recorded through it would land in the parent's
    run stream, so the child simply forgets the reference; worker spans
    travel back to the parent as task telemetry instead.
    """
    global _ACTIVE
    _ACTIVE = None


def span(name: str, **args):
    """A span on the active tracer, or a shared no-op when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **args)


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def is_enabled() -> bool:
    return _ACTIVE is not None


def enable(tracer: Optional[Tracer] = None,
           logger: Optional[Any] = None) -> Tracer:
    """Install (and return) a tracer as the process-wide active one."""
    global _ACTIVE
    if tracer is None:
        tracer = Tracer(logger=logger)
    _ACTIVE = tracer
    return tracer


def disable() -> Optional[Tracer]:
    """Uninstall the active tracer and return it for export."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


@contextmanager
def tracing(logger: Optional[Any] = None):
    """Scoped tracing: install a fresh tracer, restore the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    tracer = Tracer(logger=logger)
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


def format_span_table(summary: Dict[str, Dict[str, float]],
                      wall_seconds: Optional[float] = None) -> str:
    """Terminal table of a :meth:`Tracer.summary`, sorted by total time."""
    rows = sorted(summary.items(), key=lambda kv: -kv[1]["seconds"])
    total = wall_seconds if wall_seconds else sum(
        entry["seconds"] for _, entry in rows) or 1.0
    name_width = max([len(name) for name, _ in rows] + [len("span")])
    header = (f"{'span':<{name_width}}  {'calls':>7}  {'total ms':>10}  "
              f"{'avg ms':>10}  {'%':>6}")
    lines = [header, "-" * len(header)]
    for name, entry in rows:
        count = int(entry["count"])
        seconds = entry["seconds"]
        avg = seconds / count if count else 0.0
        lines.append(
            f"{name:<{name_width}}  {count:>7d}  {seconds * 1e3:>10.3f}  "
            f"{avg * 1e3:>10.3f}  {100.0 * seconds / total:>5.1f}%")
    return "\n".join(lines)
