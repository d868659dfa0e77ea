"""Structured JSONL run telemetry.

:class:`RunLogger` appends one strict-JSON object per line to a
telemetry file — for a recorded run, the run's one stream
``quality.jsonl``: per-iteration losses and gradient norms, wall-clock
per phase, lithography-engine call counts, checkpoint/divergence/resume
events, finished spans and their summaries, and a worker pool's
per-worker records.  Every record is flushed as it is written.  The record layout is pinned by the checked-in schema
``telemetry_schema.json`` and *every* record is validated against it
before it is written — the schema is a contract for downstream
consumers (dashboards, regression tests), not documentation.

Non-finite floats are encoded as the strings ``"nan"`` / ``"inf"`` /
``"-inf"`` so emitted lines always parse under strict JSON (a NaN
iteration is precisely when telemetry matters most).
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Dict, Optional

import numpy as np

SCHEMA_VERSION = 1
SCHEMA_PATH = os.path.join(os.path.dirname(__file__),
                           "telemetry_schema.json")

_schema_cache: Optional[dict] = None


class TelemetrySchemaError(ValueError):
    """A telemetry record does not conform to the checked-in schema."""


def telemetry_schema() -> dict:
    """The parsed contents of ``telemetry_schema.json`` (cached)."""
    global _schema_cache
    if _schema_cache is None:
        with open(SCHEMA_PATH, "r", encoding="utf-8") as fh:
            _schema_cache = json.load(fh)
    return _schema_cache


# ----------------------------------------------------------------------
# value sanitization
# ----------------------------------------------------------------------
def sanitize(value):
    """Convert a value into strict-JSON-safe primitives.

    numpy scalars become Python scalars; non-finite floats become the
    strings ``"nan"`` / ``"inf"`` / ``"-inf"``; dicts are sanitized
    recursively.
    """
    if isinstance(value, dict):
        return {str(key): sanitize(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(entry) for entry in value]
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into telemetry")


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
_NONFINITE_STRINGS = ("nan", "inf", "-inf")


def _check_type(name: str, value, type_name: str) -> None:
    if type_name == "integer":
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif type_name == "number":
        ok = (isinstance(value, (int, float))
              and not isinstance(value, bool)
              and math.isfinite(value))
    elif type_name == "string":
        ok = isinstance(value, str)
    elif type_name == "maybe_number":
        ok = (value is None
              or (isinstance(value, str) and value in _NONFINITE_STRINGS)
              or (isinstance(value, (int, float))
                  and not isinstance(value, bool)
                  and math.isfinite(value)))
    elif type_name == "loss_map":
        ok = isinstance(value, dict)
        if ok:
            for key, entry in value.items():
                _check_type(f"{name}[{key!r}]", entry, "maybe_number")
    elif type_name == "stats_map":
        ok = isinstance(value, dict)
        if ok:
            for key, entry in value.items():
                _check_type(f"{name}[{key!r}]", entry, "number")
    elif type_name == "span_map":
        ok = isinstance(value, dict)
        if ok:
            for key, entry in value.items():
                if not isinstance(entry, dict) or set(entry) != {"count",
                                                                 "seconds"}:
                    raise TelemetrySchemaError(
                        f"field {name}[{key!r}] must be an object with "
                        f"exactly 'count' and 'seconds', got {entry!r}")
                _check_type(f"{name}[{key!r}]['count']", entry["count"],
                            "integer")
                _check_type(f"{name}[{key!r}]['seconds']", entry["seconds"],
                            "number")
    elif type_name == "string_list":
        ok = isinstance(value, list)
        if ok:
            for i, entry in enumerate(value):
                _check_type(f"{name}[{i}]", entry, "string")
    elif type_name == "string_map":
        ok = isinstance(value, dict)
        if ok:
            for key, entry in value.items():
                _check_type(f"{name}[{key!r}]", entry, "string")
    elif type_name == "hotspot_list":
        ok = isinstance(value, list)
        if ok:
            for i, entry in enumerate(value):
                if not isinstance(entry, dict) or set(entry) != {"x", "y",
                                                                 "epe"}:
                    raise TelemetrySchemaError(
                        f"field {name}[{i}] must be an object with exactly "
                        f"'x', 'y' and 'epe', got {entry!r}")
                _check_type(f"{name}[{i}]['x']", entry["x"], "number")
                _check_type(f"{name}[{i}]['y']", entry["y"], "number")
                _check_type(f"{name}[{i}]['epe']", entry["epe"],
                            "maybe_number")
    else:
        raise TelemetrySchemaError(
            f"schema references unknown type {type_name!r}")
    if not ok:
        raise TelemetrySchemaError(
            f"field {name!r} = {value!r} is not a valid {type_name}")


def validate_record(record: dict) -> None:
    """Raise :class:`TelemetrySchemaError` unless ``record`` conforms."""
    if not isinstance(record, dict):
        raise TelemetrySchemaError(
            f"telemetry record must be an object, got "
            f"{type(record).__name__}")
    schema = telemetry_schema()
    common = schema["common"]["required"]
    for key, type_name in common.items():
        if key not in record:
            raise TelemetrySchemaError(f"missing required field {key!r}")
        _check_type(key, record[key], type_name)
    if record["schema"] != schema["version"]:
        raise TelemetrySchemaError(
            f"record schema version {record['schema']!r} != "
            f"{schema['version']}")
    event = record["event"]
    if event not in schema["events"]:
        raise TelemetrySchemaError(f"unknown event type {event!r}")
    spec = schema["events"][event]
    for key, type_name in spec["required"].items():
        if key not in record:
            raise TelemetrySchemaError(
                f"event {event!r} missing required field {key!r}")
        _check_type(key, record[key], type_name)
    allowed = set(common) | set(spec["required"]) | set(spec["optional"])
    for key in record:
        if key not in allowed:
            raise TelemetrySchemaError(
                f"event {event!r} does not allow field {key!r}")
        if key in spec["optional"] and record[key] is not None:
            _check_type(key, record[key], spec["optional"][key])


# ----------------------------------------------------------------------
class RunLogger:
    """Append-only JSONL telemetry writer for one run.

    Parameters
    ----------
    path:
        Telemetry file; parent directories are created on demand.
    phase:
        Stamped on every record that does not pass its own ``phase``
        field to :meth:`event` (the training harness stamps
        ``"pretrain"``/``"gan"`` on its records this way).
    append:
        Open in append mode instead of truncating (a run handle's
        stream, which a reloaded handle may reopen).
    """

    def __init__(self, path: str, phase: str, append: bool = False):
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self.path = path
        self.phase = phase
        self._fh = open(path, "a" if append else "w", encoding="utf-8")

    def event(self, event: str, **fields) -> None:
        """Validate and write one telemetry record."""
        record = {"schema": SCHEMA_VERSION, "event": event,
                  "phase": self.phase, "ts": time.time()}
        for key, value in fields.items():
            if value is None:
                continue
            record[key] = sanitize(value)
        validate_record(record)
        self._fh.write(json.dumps(record, sort_keys=True,
                                  allow_nan=False) + "\n")
        self._fh.flush()

    def span_summary(self, spans: Dict[str, Dict[str, float]],
                     wall_seconds: Optional[float] = None,
                     coverage: Optional[float] = None,
                     trace_file: Optional[str] = None) -> None:
        """Record an aggregated tracer summary (``{name: {count, seconds}}``).

        ``spans`` is exactly the shape :meth:`repro.obs.Tracer.summary`
        returns; ``coverage`` is the fraction of wall time accounted
        for by top-level spans and ``trace_file`` points at the Chrome
        trace JSON sharing the run directory.
        """
        spans = {name: {"count": int(entry["count"]),
                        "seconds": float(entry["seconds"])}
                 for name, entry in spans.items()}
        self.event("span_summary", spans=spans, wall_seconds=wall_seconds,
                   coverage=coverage, trace_file=trace_file)

    def worker_span_summary(self, pid: int,
                            spans: Dict[str, Dict[str, float]],
                            tasks: Optional[int] = None,
                            busy_seconds: Optional[float] = None,
                            dropped_spans: Optional[int] = None,
                            litho: Optional[Dict[str, float]] = None) -> None:
        """Record one worker process's aggregated span summary.

        :meth:`~repro.parallel.pool.PoolStats.log_to` writes one of
        these per worker pid after a pooled run, from the shipped
        :class:`~repro.obs.aggregate.TaskTelemetry` merges; ``litho``
        carries the worker's summed engine-counter deltas.
        """
        spans = {name: {"count": int(entry["count"]),
                        "seconds": float(entry["seconds"])}
                 for name, entry in spans.items()}
        self.event("worker_span_summary", pid=int(pid), spans=spans,
                   tasks=tasks, busy_seconds=busy_seconds,
                   dropped_spans=dropped_spans, litho=litho)

    def quality_sample(self, iteration: int, objective: float,
                       l2: Optional[float] = None,
                       clip: Optional[str] = None,
                       method: Optional[str] = None,
                       stage: Optional[str] = None,
                       seconds: Optional[float] = None) -> None:
        """Record one point of a convergence curve.

        ``objective`` is the quantity the loop descends (relaxed litho
        error for ILT, the phase's main loss for training); ``l2`` is
        the discrete metric at evaluation points.
        """
        self.event("quality_sample", iteration=int(iteration),
                   objective=objective, l2=l2, clip=clip, method=method,
                   stage=stage, seconds=seconds)

    def clip_result(self, clip: str, method: str,
                    metrics: Dict[str, float],
                    runtime_seconds: Optional[float] = None,
                    stage_seconds: Optional[Dict[str, float]] = None,
                    epe_hotspots: Optional[list] = None) -> None:
        """Record one clip's final quality metrics for one method.

        ``metrics`` is the :meth:`MaskEvaluation.as_dict` numeric subset
        (L2/PVB/EPE plus window metrics when a corner stack ran);
        ``epe_hotspots`` carries the violating control points
        (``{x, y, epe}`` in nm) that feed the report's hotspot overlay.
        """
        self.event("clip_result", clip=clip, method=method,
                   metrics=metrics, runtime_seconds=runtime_seconds,
                   stage_seconds=stage_seconds or None,
                   epe_hotspots=epe_hotspots or None)

    def anomaly(self, kind: str, **fields) -> None:
        """Record one anomaly (divergence, straggler, ...).

        Divergence-guard interventions and pool stragglers are recorded
        through this one event type so a run's health problems are
        queryable from its telemetry instead of scraped from logs.
        """
        self.event("anomaly", kind=kind, **fields)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunLogger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
