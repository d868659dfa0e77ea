"""Quality views over a run's telemetry: aggregation + gate records.

Two consumers read a run's ``quality.jsonl``:

* :func:`run_quality` folds the stream into a :class:`RunQuality` —
  convergence series, per-clip/per-method final metrics, anomalies —
  the shape ``repro runs show/diff`` and ``repro report`` render;
* :func:`quality_record_from_table2` distills a
  :class:`~repro.bench.harness.Table2Result` into the flat
  ``QUALITY_*.json`` record that ``BASELINE_quality.json`` pins and
  ``benchmarks/check_quality_regression.py`` gates in CI (the quality
  twin of ``BENCH_substrate.json`` / ``check_bench_regression.py``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

QUALITY_SCHEMA_VERSION = 1

#: Metrics the regression gate compares (all lower-is-better).
GATE_METRICS = ("l2_nm2", "pvband_nm2", "epe_violations",
                "window_pvband_nm2", "worst_corner_l2_nm2",
                "worst_corner_epe")

#: MaskEvaluation fields carried into clip_result records / gate records.
CLIP_METRIC_KEYS = GATE_METRICS + ("neck_defects", "bridge_defects")


class QualityRecordError(ValueError):
    """A QUALITY_*.json file is missing, corrupt or schema-less."""


def _maybe_float(value):
    if value is None or isinstance(value, str):
        return value
    return float(value)


def clip_metrics(evaluation) -> Dict[str, float]:
    """The numeric metric subset of a
    :class:`~repro.metrics.report.MaskEvaluation` (None fields dropped)."""
    data = evaluation.as_dict()
    return {key: _maybe_float(data[key]) for key in CLIP_METRIC_KEYS
            if data.get(key) is not None}


@dataclass
class RunQuality:
    """Folded quality telemetry of one run directory.

    Attributes
    ----------
    samples:
        Convergence points grouped by series key (``stage`` for
        training runs, ``method/clip`` for per-clip optimization):
        each entry is ``(iteration, objective, l2-or-None)``.
    clip_results:
        ``{method: {clip: metrics-dict}}`` from ``clip_result`` records.
    runtimes:
        ``{method: {clip: runtime_seconds}}`` where recorded.
    hotspots:
        ``{(method, clip): [{x, y, epe}, ...]}`` EPE hotspot control
        points for the report overlay.
    anomalies:
        Raw ``anomaly`` records in stream order.
    spans:
        Sum of the run's ``span_summary`` and ``worker_span_summary``
        span maps (``{name: {count, seconds}}``), empty when the run
        recorded no spans.  ``span`` records are not folded: the
        summary already counts them.
    """

    samples: Dict[str, List[tuple]] = field(default_factory=dict)
    clip_results: Dict[str, Dict[str, Dict[str, float]]] = \
        field(default_factory=dict)
    runtimes: Dict[str, Dict[str, float]] = field(default_factory=dict)
    hotspots: Dict[tuple, List[dict]] = field(default_factory=dict)
    anomalies: List[dict] = field(default_factory=list)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """Per-method metric means over clips (finite values only)."""
        out: Dict[str, Dict[str, float]] = {}
        for method, clips in self.clip_results.items():
            sums: Dict[str, List[float]] = {}
            for metrics in clips.values():
                for key, value in metrics.items():
                    if isinstance(value, (int, float)) \
                            and np.isfinite(value):
                        sums.setdefault(key, []).append(float(value))
            out[method] = {key: float(np.mean(values))
                           for key, values in sums.items()}
            runtime = [v for v in self.runtimes.get(method, {}).values()
                       if v is not None]
            if runtime:
                out[method]["runtime_seconds"] = float(np.mean(runtime))
        return out

    @property
    def methods(self) -> List[str]:
        return sorted(self.clip_results)

    @property
    def clips(self) -> List[str]:
        names = set()
        for clips in self.clip_results.values():
            names.update(clips)
        return sorted(names)


def _number(value):
    """Undo the telemetry non-finite-string encoding."""
    if value == "nan":
        return float("nan")
    if value == "inf":
        return float("inf")
    if value == "-inf":
        return float("-inf")
    return value


def run_quality(run_dir: str) -> RunQuality:
    """Fold every telemetry stream in a run directory into one view.

    A run writes one stream, ``quality.jsonl``.  Runs recorded before
    that also hold phase streams (``pretrain.jsonl``/``gan.jsonl`` from
    training) in the same directory and the same schema-validated
    record format, so every ``*.jsonl`` is folded, additively, and
    events the fold does not know about are skipped.
    """
    quality = RunQuality()
    if not os.path.isdir(run_dir):
        return quality
    streams = sorted(name for name in os.listdir(run_dir)
                     if name.endswith(".jsonl"))
    for name in streams:
        _fold_stream(quality, os.path.join(run_dir, name))
    return quality


def _fold_stream(quality: RunQuality, path: str) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            event = record.get("event")
            if event == "quality_sample":
                key_parts = [record[k] for k in ("method", "clip", "stage")
                             if record.get(k)]
                key = "/".join(key_parts) or record.get("phase", "run")
                quality.samples.setdefault(key, []).append(
                    (record["iteration"], _number(record["objective"]),
                     _number(record.get("l2"))))
            elif event == "clip_result":
                method = record["method"]
                clip = record["clip"]
                metrics = {key: _number(value) for key, value
                           in record["metrics"].items()}
                quality.clip_results.setdefault(method, {})[clip] = metrics
                if record.get("runtime_seconds") is not None:
                    quality.runtimes.setdefault(method, {})[clip] = \
                        record["runtime_seconds"]
                if record.get("epe_hotspots"):
                    quality.hotspots[(method, clip)] = \
                        record["epe_hotspots"]
            elif event == "anomaly":
                quality.anomalies.append(record)
            elif event in ("span_summary", "worker_span_summary"):
                for name, entry in record.get("spans", {}).items():
                    merged = quality.spans.setdefault(
                        name, {"count": 0, "seconds": 0.0})
                    merged["count"] += int(entry["count"])
                    merged["seconds"] += float(entry["seconds"])


# ----------------------------------------------------------------------
# the flat gate record (QUALITY_*.json / BASELINE_quality.json)
# ----------------------------------------------------------------------
def quality_record_from_table2(result, suite: str,
                               git_rev: str = "unknown",
                               config_hash: Optional[str] = None) -> dict:
    """Distill a Table 2 result into the gate's flat record shape."""
    clips: Dict[str, Dict[str, Dict[str, float]]] = {}
    for method, evaluations in result.columns.items():
        clips[method] = {}
        for evaluation in evaluations:
            metrics = clip_metrics(evaluation)
            metrics = {key: value for key, value in metrics.items()
                       if isinstance(value, (int, float))}
            clips[method][evaluation.name] = metrics
    aggregates = {
        method: {
            key: float(np.mean([m[key] for m in per_clip.values()
                                if key in m]))
            for key in GATE_METRICS
            if any(key in m for m in per_clip.values())
        }
        for method, per_clip in clips.items()
    }
    from .store import utc_iso
    return {
        "schema": QUALITY_SCHEMA_VERSION,
        "kind": "quality",
        "suite": suite,
        "generated_utc": utc_iso(),
        "git_rev": git_rev,
        "config_hash": config_hash,
        "clips": clips,
        "aggregates": aggregates,
    }


def write_quality_record(record: dict, path: str) -> str:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_quality_record(path: str) -> dict:
    """Load and validate a QUALITY_*.json gate record.

    Raises :class:`QualityRecordError` with a pointed message on
    schema-less or corrupt files instead of failing downstream.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        raise QualityRecordError(f"quality record not found: {path}") \
            from None
    except json.JSONDecodeError as exc:
        raise QualityRecordError(
            f"{path} is not valid JSON ({exc}); regenerate it with "
            f"'repro table2 --quality-out'") from exc
    if not isinstance(record, dict) \
            or record.get("schema") != QUALITY_SCHEMA_VERSION:
        raise QualityRecordError(
            f"{path}: missing or unsupported quality schema "
            f"{record.get('schema') if isinstance(record, dict) else None!r}"
            f" (expected {QUALITY_SCHEMA_VERSION})")
    if "clips" not in record or not isinstance(record["clips"], dict):
        raise QualityRecordError(f"{path}: record has no 'clips' table")
    return record
