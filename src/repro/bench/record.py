"""Machine-readable benchmark records (``BENCH_*.json``).

The benchmark suite's human-readable output (pytest-benchmark tables,
printed speedups) is useless for regression tracking, so the substrate
benchmarks also persist their numbers through :class:`BenchRecorder`:
one flat JSON file per suite, checked in at the repo root, that future
changes can diff against.  Entries are keyed by a stable
``name/grid<G>/batch<B>`` string and carry best-of-N wall seconds plus
derived throughput, so "did this PR slow the engine down?" is a
one-line ``json.load`` away.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional

RECORD_SCHEMA_VERSION = 1


def measure(fn: Callable[[], object], repeats: int = 5,
            warmup: int = 1) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()``.

    Minimum (not mean) — the minimum is the least noisy estimator of
    the true cost on a shared machine; everything above it is
    interference.
    """
    return measure_interleaved(fn, rounds=repeats, warmup=warmup)[0]


def measure_interleaved(*fns: Callable[[], object], rounds: int = 7,
                        warmup: int = 1) -> List[float]:
    """Best-of-``rounds`` wall-clock seconds of each callable, timed in
    alternating rounds: every round calls ``fns[0]()``, then
    ``fns[1]()``, and so on.

    Use it for a speed ratio.  Two separate best-of windows let a host
    slowdown during one of them move the ratio; alternating rounds put
    both sides under the same load, so the minima move together.
    """
    for _ in range(warmup):
        for fn in fns:
            fn()
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


class BenchRecorder:
    """Collects named timing entries and writes one ``BENCH_*.json``."""

    def __init__(self, benchmark: str,
                 config_hash: Optional[str] = None):
        self.benchmark = benchmark
        #: optional litho-config kernel hash; ties the record to the
        #: exact optical model the numbers were measured under.
        self.config_hash = config_hash
        self.entries: Dict[str, Dict[str, object]] = {}

    def add(self, name: str, seconds: float,
            grid: Optional[int] = None, batch: Optional[int] = None,
            **extra) -> Dict[str, object]:
        """Record one entry; ``batch`` adds derived throughput.

        Extra metadata is numeric by default; strings pass through
        unchanged (precision names).
        """
        entry: Dict[str, object] = {"seconds": float(seconds)}
        if grid is not None:
            entry["grid"] = int(grid)
        if batch is not None:
            entry["batch"] = int(batch)
            if seconds > 0:
                entry["throughput_per_second"] = float(batch / seconds)
        for key, value in extra.items():
            entry[key] = value if isinstance(value, str) else float(value)
        self.entries[name] = entry
        return entry

    def timeit(self, name: str, fn: Callable[[], object],
               grid: Optional[int] = None, batch: Optional[int] = None,
               repeats: int = 5, **extra) -> Dict[str, object]:
        """Measure ``fn`` with :func:`measure` and record the result."""
        return self.add(name, measure(fn, repeats=repeats),
                        grid=grid, batch=batch, **extra)

    def to_dict(self) -> dict:
        from ..runs.store import git_revision, utc_iso
        record = {
            "schema": RECORD_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "generated_utc": utc_iso(),
            "git_rev": git_revision(),
            "machine": {
                "platform": platform.platform(),
                "python": platform.python_version(),
            },
            "entries": {name: self.entries[name]
                        for name in sorted(self.entries)},
        }
        if self.config_hash is not None:
            record["config_hash"] = self.config_hash
        return record

    def write(self, path: str) -> str:
        """Atomically write the record as pretty-printed strict JSON."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
        return path


class BenchRecordError(ValueError):
    """A ``BENCH_*.json`` file is missing, corrupt or schema-less."""


def load_record(path: str) -> dict:
    """Read a ``BENCH_*.json`` previously written by :class:`BenchRecorder`.

    Raises :class:`BenchRecordError` with a pointed message when the
    file is missing, not JSON, or lacks the expected schema stamp —
    downstream comparison code should never have to guess why a record
    failed to parse.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        raise BenchRecordError(f"bench record not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise BenchRecordError(
            f"{path} is not valid JSON ({exc}); regenerate it by "
            f"rerunning the benchmark suite") from exc
    if not isinstance(record, dict) \
            or record.get("schema") != RECORD_SCHEMA_VERSION:
        raise BenchRecordError(
            f"{path}: missing or unsupported bench schema "
            f"{record.get('schema') if isinstance(record, dict) else None!r}"
            f" (expected {RECORD_SCHEMA_VERSION})")
    if "entries" not in record or not isinstance(record["entries"], dict):
        raise BenchRecordError(f"{path}: record has no 'entries' table")
    return record
