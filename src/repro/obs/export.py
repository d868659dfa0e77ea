"""OpenMetrics text file of a finished worker-pool run.

:func:`render_openmetrics` turns a pool's
:class:`~repro.parallel.pool.PoolStats` and the latest per-worker
/proc readings of its :class:`~repro.obs.health.ResourceSampler` into
the OpenMetrics text format (the superset Prometheus scrapes):

* gauges ``repro_pool_tasks_total``, ``repro_pool_tasks_done`` and
  ``repro_pool_utilization``;
* the ``repro_pool_task_seconds`` summary (``_count``/``_sum``) with
  ``repro_pool_task_seconds_min``/``_max`` gauges;
* per-worker gauges ``repro_pool_worker_<field>{pid="N"}`` for
  ``rss_bytes``, ``cpu_seconds``, ``threads`` and ``cpu_utilization``.

Families come sorted by name, each sample carries its family's name
plus a suffix its type allows, and the text ends with ``# EOF`` as
OpenMetrics requires.  :func:`write_openmetrics` writes the file that
``repro monitor --metrics-out`` leaves (e.g. for node-exporter's
textfile collector).
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Tuple

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: per-worker reading fields, as :class:`ResourceSampler` keys them
_WORKER_FIELDS = ("rss_bytes", "cpu_seconds", "threads", "cpu_utilization")


def metric_name(raw: str) -> str:
    """Exposition name: ``repro_`` plus ``raw`` with every character
    outside ``[a-zA-Z0-9_:]`` replaced by ``_``."""
    return "repro_" + _NAME_RE.sub("_", raw.strip())


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_openmetrics(pool_stats,
                       workers: Dict[int, Dict[str, float]]) -> str:
    """OpenMetrics text for a finished pool run.

    ``pool_stats`` is the pool's ``PoolStats``; ``workers`` maps each
    worker pid to its latest reading (``ResourceSampler.latest``).
    The file is written after the run, so every submitted task is done.
    """
    seconds = [elapsed for _, elapsed in pool_stats.task_records]
    # family -> (type, [(name suffix or label set, value)])
    families: Dict[str, Tuple[str, List[Tuple[str, float]]]] = {
        "pool.tasks_total": ("gauge", [("", pool_stats.tasks)]),
        "pool.tasks_done": ("gauge", [("", pool_stats.tasks)]),
        "pool.utilization": ("gauge", [("", pool_stats.utilization())]),
        "pool.task_seconds": ("summary", [("_count", len(seconds)),
                                          ("_sum", sum(seconds))]),
        "pool.task_seconds_min": ("gauge", [("", min(seconds, default=0))]),
        "pool.task_seconds_max": ("gauge", [("", max(seconds, default=0))]),
    }
    for field in _WORKER_FIELDS:
        samples = [(f'{{pid="{pid}"}}', reading[field])
                   for pid, reading in sorted(workers.items())
                   if field in reading]
        if samples:
            families[f"pool.worker.{field}"] = ("gauge", samples)
    lines: List[str] = []
    for name, (kind, samples) in sorted(
            (metric_name(raw), family) for raw, family in families.items()):
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(f"{name}{suffix} {_format_value(value)}"
                     for suffix, value in samples)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(pool_stats, workers: Dict[int, Dict[str, float]],
                      path: str) -> str:
    """Write :func:`render_openmetrics` to ``path``; returns the path."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_openmetrics(pool_stats, workers))
    return path
