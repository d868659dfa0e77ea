"""Content-addressed experiment run store (the "run ledger").

Every ``repro train/flow/ilt/table2`` invocation opens a run in the
store (``--runs-dir``, default ``.repro_runs/``): a directory named by
a content hash of the run's configuration plus its start time, holding

* ``manifest.json`` — what was run: command, CLI argv, git revision,
  litho config (and its kernel-cache ``config_hash``), corner stack,
  seed, precision, workers, package versions, links to the artifacts
  the run produced (checkpoints, masks, persisted Table 2 results),
  and a final metric summary;
* ``quality.jsonl`` — the run's one telemetry stream, schema-validated
  through the :class:`~repro.runtime.telemetry.RunLogger` contract: the
  ``run_manifest`` header record, then whatever the command records —
  quality samples, clip results, anomalies, training phase records
  (each stamped ``pretrain`` or ``gan``), the flow record, ``span``
  records and the one ``span_summary`` of a traced run, and a worker
  pool's per-worker summaries;
* whatever artifacts the command links in (``table2.json``, mask PGMs,
  copied clip ``.glp`` files, ...).

The store is the substrate of ``repro runs list/show/diff`` and
``repro report``: two runs can be compared — config deltas, per-clip
and aggregate metric deltas — without rerunning anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

MANIFEST_NAME = "manifest.json"
QUALITY_LOG_NAME = "quality.jsonl"
TABLE2_NAME = "table2.json"
DEFAULT_ROOT = ".repro_runs"
MANIFEST_SCHEMA_VERSION = 1


class RunStoreError(ValueError):
    """A run store operation failed (unknown id, corrupt manifest, ...)."""


def git_revision(cwd: Optional[str] = None) -> str:
    """Short git revision of ``cwd`` (or the process cwd); ``"unknown"``
    when git is unavailable or the directory is not a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def package_versions() -> Dict[str, str]:
    """Versions of the packages that determine numeric results."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def utc_iso(ts: Optional[float] = None) -> str:
    """ISO-8601 UTC timestamp (second resolution, ``Z`` suffix)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ",
                         time.gmtime(time.time() if ts is None else ts))


@dataclass
class RunManifest:
    """Everything needed to identify, reproduce and compare one run."""

    run_id: str
    command: str
    argv: List[str] = field(default_factory=list)
    started: str = ""
    finished: Optional[str] = None
    status: str = "running"
    git_rev: str = "unknown"
    config_hash: Optional[str] = None
    litho: Dict = field(default_factory=dict)
    conditions: Optional[str] = None
    seed: Optional[int] = None
    precision: Optional[str] = None
    workers: Optional[int] = None
    grid: Optional[int] = None
    packages: Dict[str, str] = field(default_factory=dict)
    params: Dict = field(default_factory=dict)
    artifacts: Dict[str, str] = field(default_factory=dict)
    summary: Dict = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        if not isinstance(data, dict) or "run_id" not in data \
                or "command" not in data:
            raise RunStoreError(
                f"not a run manifest: missing run_id/command in {data!r}")
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in data.items()
                      if key in known})

    def config_fields(self) -> Dict[str, object]:
        """The flat fields ``repro runs diff`` compares as configuration."""
        out: Dict[str, object] = {
            "command": self.command,
            "git_rev": self.git_rev,
            "config_hash": self.config_hash,
            "conditions": self.conditions,
            "seed": self.seed,
            "precision": self.precision,
            "workers": self.workers,
            "grid": self.grid,
        }
        for key, value in sorted(self.params.items()):
            out[f"params.{key}"] = value
        for key, value in sorted(self.packages.items()):
            out[f"packages.{key}"] = value
        return out


class RunHandle:
    """One open (or reloaded) run: its directory, manifest and logger."""

    def __init__(self, store: "RunStore", manifest: RunManifest):
        self.store = store
        self.manifest = manifest
        self.dir = os.path.join(store.root, manifest.run_id)
        self._logger = None

    # ------------------------------------------------------------------
    @property
    def quality_log_path(self) -> str:
        return os.path.join(self.dir, QUALITY_LOG_NAME)

    @property
    def logger(self):
        """Lazily opened :class:`RunLogger` on ``quality.jsonl``, the
        run's one stream; :meth:`finish` closes it."""
        if self._logger is None:
            from ..runtime.telemetry import RunLogger
            self._logger = RunLogger(self.quality_log_path,
                                     self.manifest.command, append=True)
            self.manifest.artifacts.setdefault("quality", QUALITY_LOG_NAME)
        return self._logger

    def log_manifest_record(self) -> None:
        """Emit the ``run_manifest`` header record into ``quality.jsonl``."""
        m = self.manifest
        self.logger.event(
            "run_manifest", run_id=m.run_id, command=m.command,
            argv=list(m.argv), git_rev=m.git_rev,
            config_hash=m.config_hash, seed=m.seed,
            precision=m.precision, workers=m.workers, grid=m.grid,
            conditions=m.conditions, packages=m.packages or None,
            runs_dir=os.path.abspath(self.store.root))

    # ------------------------------------------------------------------
    def add_artifact(self, name: str, path: str) -> str:
        """Link an artifact into the manifest.

        Paths inside the run directory are stored relative to it so the
        store stays relocatable; outside paths are stored absolute.
        """
        absolute = os.path.abspath(path)
        run_dir = os.path.abspath(self.dir)
        if absolute.startswith(run_dir + os.sep):
            stored = os.path.relpath(absolute, run_dir)
        else:
            stored = absolute
        self.manifest.artifacts[name] = stored
        return stored

    def import_file(self, name: str, path: str,
                    filename: Optional[str] = None) -> str:
        """Copy a file into the run directory and link it."""
        filename = filename or os.path.basename(path)
        destination = os.path.join(self.dir, filename)
        shutil.copyfile(path, destination)
        return self.add_artifact(name, destination)

    def artifact_path(self, name: str) -> Optional[str]:
        stored = self.manifest.artifacts.get(name)
        if stored is None:
            return None
        if os.path.isabs(stored):
            return stored
        return os.path.join(self.dir, stored)

    def save_table2(self, result) -> str:
        """Persist a :class:`~repro.bench.harness.Table2Result` losslessly."""
        path = os.path.join(self.dir, TABLE2_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return self.add_artifact("table2", path)

    # ------------------------------------------------------------------
    def write_manifest(self) -> str:
        from ..runtime.telemetry import sanitize
        path = os.path.join(self.dir, MANIFEST_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            # Commands write metrics into manifest.summary directly;
            # sanitize at write time so non-finite floats become their
            # strict-JSON string encoding instead of blowing up here.
            json.dump(sanitize(self.manifest.to_dict()), fh, indent=2,
                      sort_keys=True, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    def finish(self, status: str = "complete",
               summary: Optional[Dict] = None) -> str:
        """Stamp the end time/status/summary and close the logger."""
        self.manifest.finished = utc_iso()
        self.manifest.status = status
        if summary:
            from ..runtime.telemetry import sanitize
            self.manifest.summary.update(sanitize(summary))
        if self._logger is not None:
            self._logger.close()
        return self.write_manifest()


class RunStore:
    """Directory of run manifests, one subdirectory per run."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or os.environ.get("REPRO_RUNS_DIR", DEFAULT_ROOT)

    # ------------------------------------------------------------------
    def create(self, command: str, argv: Optional[List[str]] = None,
               litho=None, conditions=None, seed: Optional[int] = None,
               precision: Optional[str] = None,
               workers: Optional[int] = None,
               params: Optional[Dict] = None) -> RunHandle:
        """Open a new run and write its initial manifest.

        ``litho`` is a :class:`~repro.litho.config.LithoConfig` (hashed
        with the kernel cache's :func:`~repro.litho.kernels.config_hash`
        so a run links directly to its kernel archive); ``conditions``
        a :class:`~repro.litho.conditions.ConditionSet` or ``None``.
        """
        litho_dict: Dict = {}
        config_hash = None
        grid = None
        if litho is not None:
            from ..litho.kernels import config_hash as litho_hash
            litho_dict = json.loads(json.dumps(asdict(litho), default=repr))
            config_hash = litho_hash(litho)
            grid = int(litho.grid)
        started_ts = time.time()
        identity = json.dumps(
            {"command": command, "argv": list(argv or []),
             "config_hash": config_hash, "seed": seed,
             "precision": precision, "workers": workers,
             "started": started_ts, "pid": os.getpid()},
            sort_keys=True)
        digest = hashlib.sha256(identity.encode()).hexdigest()[:8]
        run_id = (time.strftime("%Y%m%dT%H%M%S", time.gmtime(started_ts))
                  + f"-{command}-{digest}")
        manifest = RunManifest(
            run_id=run_id, command=command, argv=list(argv or []),
            started=utc_iso(started_ts), git_rev=git_revision(),
            config_hash=config_hash, litho=litho_dict,
            conditions=(conditions.describe()
                        if conditions is not None else None),
            seed=seed, precision=precision, workers=workers, grid=grid,
            packages=package_versions(), params=dict(params or {}))
        handle = RunHandle(self, manifest)
        os.makedirs(handle.dir, exist_ok=True)
        handle.write_manifest()
        return handle

    # ------------------------------------------------------------------
    def run_ids(self) -> List[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name for name in os.listdir(self.root)
            if os.path.isfile(os.path.join(self.root, name, MANIFEST_NAME)))

    def load(self, run_id: str) -> RunHandle:
        path = os.path.join(self.root, run_id, MANIFEST_NAME)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise RunStoreError(
                f"no run {run_id!r} in {self.root!r}") from None
        except json.JSONDecodeError as exc:
            raise RunStoreError(f"corrupt manifest {path}: {exc}") from exc
        manifest = RunManifest.from_dict(data)
        manifest.run_id = run_id
        return RunHandle(self, manifest)

    def resolve(self, token: str) -> RunHandle:
        """Resolve a run by exact id, unique prefix/substring or
        ``"latest"`` (run ids sort chronologically)."""
        ids = self.run_ids()
        if not ids:
            raise RunStoreError(f"run store {self.root!r} is empty")
        if token in ("latest", "last", "@"):
            return self.load(ids[-1])
        if token in ids:
            return self.load(token)
        matches = [rid for rid in ids if rid.startswith(token)] \
            or [rid for rid in ids if token in rid]
        if len(matches) == 1:
            return self.load(matches[0])
        if not matches:
            raise RunStoreError(
                f"no run matches {token!r} in {self.root!r} "
                f"(have: {', '.join(ids[-5:])})")
        raise RunStoreError(
            f"{token!r} is ambiguous: {', '.join(matches)}")

    def runs(self) -> List[RunManifest]:
        return [self.load(rid).manifest for rid in self.run_ids()]
