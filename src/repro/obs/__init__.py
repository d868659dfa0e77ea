"""repro.obs — observability layer: span tracer, autograd profiler,
fleet telemetry.

This package sits *below* the rest of ``repro`` in the import graph:
it depends only on the standard library, so ``repro.nn``,
``repro.litho``, ``repro.ilt`` and ``repro.core`` are free to import
it for instrumentation without cycles.

Five cooperating pieces (see DESIGN.md §9 and §13):

* :mod:`repro.obs.trace` — hierarchical span tracer with Chrome
  trace-event (Perfetto) and JSONL export;
* :mod:`repro.obs.profiler` — per-op autograd profiler (wall time,
  call counts, FLOPs, allocated bytes) for ``repro.nn``;
* :mod:`repro.obs.aggregate` — cross-process telemetry: workers ship
  bounded span/profiler/engine summaries back with task results and
  the parent merges them into one trace and fleet tables;
* :mod:`repro.obs.health` — heartbeat board, stall watchdog, and
  /proc resource sampler for the worker pool;
* :mod:`repro.obs.export` — OpenMetrics text file of a finished pool
  run (task counts, task times, per-worker resource readings).

Litho call counters are not here: every engine counts into the one
process-wide ``repro.litho.LithoEngine.stats``.
"""

from repro.obs import aggregate, export, health, profiler, trace
from repro.obs.aggregate import FleetTelemetry, TaskTelemetry
from repro.obs.export import render_openmetrics, write_openmetrics
from repro.obs.health import (HeartbeatBoard, ResourceSampler, StallEvent,
                              Watchdog, proc_available)
from repro.obs.profiler import (Profiler, conv2d_flops,
                                conv_transpose2d_flops, matmul_flops)
from repro.obs.trace import Span, Tracer, format_span_table, tracing

__all__ = [
    "trace",
    "profiler",
    "aggregate",
    "health",
    "export",
    "Tracer",
    "Span",
    "tracing",
    "format_span_table",
    "Profiler",
    "conv2d_flops",
    "conv_transpose2d_flops",
    "matmul_flops",
    "TaskTelemetry",
    "FleetTelemetry",
    "HeartbeatBoard",
    "Watchdog",
    "StallEvent",
    "ResourceSampler",
    "proc_available",
    "render_openmetrics",
    "write_openmetrics",
]
