"""Run ledger: per-run manifests, quality telemetry views, diffs, reports.

``repro.runs`` is the observability substrate added for the quality
observatory: every CLI experiment opens a run in a
:class:`~repro.runs.store.RunStore`, streams schema-validated quality
telemetry into it, and the ``repro runs``/``repro report`` commands
read it back — listing runs, diffing configuration + per-clip metrics
between two runs, and rendering a self-contained HTML report.
"""

from .diff import RunDiff, diff_runs, format_run_diff
from .quality import (
    CLIP_METRIC_KEYS,
    GATE_METRICS,
    QUALITY_SCHEMA_VERSION,
    QualityRecordError,
    RunQuality,
    clip_metrics,
    load_quality_record,
    quality_record_from_table2,
    run_quality,
    write_quality_record,
)
from .report import render_report, write_report
from .store import (
    DEFAULT_ROOT,
    MANIFEST_NAME,
    QUALITY_LOG_NAME,
    TABLE2_NAME,
    RunHandle,
    RunManifest,
    RunStore,
    RunStoreError,
    git_revision,
    package_versions,
    utc_iso,
)

__all__ = [
    "CLIP_METRIC_KEYS",
    "DEFAULT_ROOT",
    "GATE_METRICS",
    "MANIFEST_NAME",
    "QUALITY_LOG_NAME",
    "QUALITY_SCHEMA_VERSION",
    "QualityRecordError",
    "RunDiff",
    "RunHandle",
    "RunManifest",
    "RunQuality",
    "RunStore",
    "RunStoreError",
    "TABLE2_NAME",
    "clip_metrics",
    "diff_runs",
    "format_run_diff",
    "git_revision",
    "load_quality_record",
    "package_versions",
    "quality_record_from_table2",
    "render_report",
    "run_quality",
    "utc_iso",
    "write_report",
]
