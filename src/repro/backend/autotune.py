"""Profiler-driven chunk autotuner for the litho engine.

The engine has one hardware-sensitive knob: the **batch chunk** — how
many masks each forward/adjoint chunk processes at once.  The default
caps the per-chunk working set (about four reduced-raster field stacks
per mask) at ~8 MB so it stays cache-resident; big-L3 or GPU machines
want larger chunks.

The tuner times a small candidate grid on the actual engine + backend,
scores each candidate in GFLOP/s against the *exact* per-op FLOP
closed forms from :mod:`repro.obs.profiler` (``matmul_flops`` over the
same shapes the engine multiplies — no estimated constants), and picks
the winner deterministically.  Measurement and choice are separated:
:func:`choose_tuning` is a pure function of a
:class:`MeasurementTable`, so given a fixed table the choice is
reproducible on any machine (and testable without timing anything).

Winners persist as config presets in a small JSON file
(``benchmarks/autotune_presets.json`` in this repo), keyed by
``backend/precision/grid/hardware`` — the taoari-style "measure once,
ship the table" pattern.  ``REPRO_AUTOTUNE=<path>`` points engines at
a preset file; unset means the built-in heuristic runs unchanged.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.profiler import matmul_flops

SCHEMA_VERSION = 1

#: Default preset file consulted when ``REPRO_AUTOTUNE=1``/``auto`` is
#: set without an explicit path (resolved relative to the repo root
#: when running from a checkout; otherwise ignored).
DEFAULT_PRESET_NAME = "autotune_presets.json"


# ----------------------------------------------------------------------
# Tuning + hardware identity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineTuning:
    """One chosen engine configuration.

    ``batch_chunk=None`` keeps the engine's built-in ~8 MB heuristic.
    """

    batch_chunk: Optional[int] = None

    def to_dict(self) -> Dict[str, Optional[int]]:
        return {"batch_chunk": self.batch_chunk}

    @classmethod
    def from_dict(cls, data: Dict) -> "EngineTuning":
        chunk = data.get("batch_chunk")
        return cls(batch_chunk=None if chunk is None else int(chunk))


def blas_threads() -> str:
    """The threaded-BLAS configuration this process runs under.

    Part of the hardware key: a preset measured with pinned BLAS
    threads must not be applied to an unpinned run.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        value = os.environ.get(var)
        if value:
            return value
    return "auto"


def hardware_key() -> str:
    """Stable identity of this machine for preset lookup."""
    return (f"{platform.system().lower()}-{platform.machine()}"
            f"-cpu{os.cpu_count()}-blas{blas_threads()}")


# ----------------------------------------------------------------------
# Exact FLOP model (profiler closed forms over the engine's shapes)
# ----------------------------------------------------------------------
def _cmatmul_flops(a_shape, b_shape) -> int:
    """Complex matmul cost: 4 real multiplies + adds per product term,
    i.e. 4x the real :func:`matmul_flops` closed form."""
    return 4 * matmul_flops(a_shape, b_shape)


def _resample_flops(grid: int, raster: int, batch: int) -> int:
    """One exact band-limited resample between the reduced raster and
    the full grid (two real matmuls; zero when ``raster == grid``)."""
    if raster >= grid:
        return 0
    return (matmul_flops((batch, raster, raster), (raster, grid))
            + matmul_flops((grid, raster), (batch, raster, grid)))


def forward_flops(grid: int, raster: int, passband: Tuple[int, int],
                  num_kernels: int, batch: int) -> int:
    """Exact FLOPs of one batched engine forward (Eq. 2 pipeline).

    Mirrors ``LithoEngine._forward_impl`` term by term: the two
    spectrum matmuls, then per kernel the passband pointwise product,
    the two inverse-DFT matmuls onto the ``raster x raster`` grid and
    the power sum (the kernel weights are folded into the kernels),
    then the resample up to the full grid.
    """
    r, c = passband
    g = raster
    spec = (_cmatmul_flops((r, grid), (batch, grid, grid))
            + _cmatmul_flops((batch, r, grid), (grid, c)))
    per_kernel = (6 * batch * r * c                       # compact * H_k
                  + _cmatmul_flops((batch, r, c), (c, g))
                  + _cmatmul_flops((g, r), (batch, r, g))
                  + 4 * batch * g * g)                    # |field|^2 sum
    return (spec + num_kernels * per_kernel
            + _resample_flops(grid, raster, batch))


def adjoint_flops(grid: int, raster: int, passband: Tuple[int, int],
                  adjoint_passband: Tuple[int, int], num_kernels: int,
                  batch: int) -> int:
    """Exact FLOPs of one batched adjoint call (Eq. 14 pipeline),
    including the nested forward: the resist on the full grid, the
    resample of dE/dI down to the raster, per kernel the weighted
    field, its two forward-DFT matmuls onto the adjoint passband and
    the scaled accumulation, then the expand onto the full grid."""
    ar, ac = adjoint_passband
    g = raster
    per_kernel = (6 * batch * g * g                       # conj * dE/dI
                  + _cmatmul_flops((ar, g), (batch, g, g))
                  + _cmatmul_flops((batch, ar, g), (g, ac))
                  + 8 * batch * ar * ac)                  # scale + acc
    expand = (_cmatmul_flops((batch, ar, ac), (ac, grid))
              + _cmatmul_flops((grid, ar), (batch, ar, grid)))
    resist = 12 * batch * grid * grid                     # sigmoid/err/up
    return (forward_flops(grid, raster, passband, num_kernels, batch)
            + resist + _resample_flops(grid, raster, batch)
            + num_kernels * per_kernel + expand)


# ----------------------------------------------------------------------
# Measurement table
# ----------------------------------------------------------------------
def candidate_key(tuning: EngineTuning) -> str:
    chunk = "auto" if tuning.batch_chunk is None else str(tuning.batch_chunk)
    return f"chunk{chunk}"


def parse_candidate_key(key: str) -> EngineTuning:
    chunk = key[len("chunk"):]
    return EngineTuning(batch_chunk=None if chunk == "auto" else int(chunk))


@dataclass
class MeasurementTable:
    """Timed candidates for one (backend, precision, grid, batch) cell.

    ``entries`` maps :func:`candidate_key` strings to best-of-N
    seconds for one adjoint call on ``batch`` masks; ``flops`` is the
    exact per-call work from :func:`adjoint_flops`, so
    ``flops / seconds`` scores candidates in absolute FLOP/s.
    """

    backend: str
    precision: str
    grid: int
    batch: int
    flops: int
    hardware: str = field(default_factory=hardware_key)
    entries: Dict[str, float] = field(default_factory=dict)

    def add(self, tuning: EngineTuning, seconds: float) -> None:
        self.entries[candidate_key(tuning)] = float(seconds)

    def gflops(self, key: str) -> float:
        return self.flops / self.entries[key] / 1e9

    def to_dict(self) -> Dict:
        return {"backend": self.backend, "precision": self.precision,
                "grid": self.grid, "batch": self.batch,
                "flops": self.flops, "hardware": self.hardware,
                "entries": dict(self.entries)}

    @classmethod
    def from_dict(cls, data: Dict) -> "MeasurementTable":
        return cls(backend=data["backend"], precision=data["precision"],
                   grid=int(data["grid"]), batch=int(data["batch"]),
                   flops=int(data["flops"]),
                   hardware=data.get("hardware", "unknown"),
                   entries={str(k): float(v)
                            for k, v in data.get("entries", {}).items()})


def choose_tuning(table: MeasurementTable) -> EngineTuning:
    """Pick the winning tuning from a measurement table.

    Pure and deterministic: fastest candidate wins; exact ties break
    toward the smaller (auto-first) batch chunk — i.e. toward the
    reference configuration — so a re-run over the same table always
    returns the same answer.
    """
    if not table.entries:
        return EngineTuning()

    def order(item):
        key, seconds = item
        tuning = parse_candidate_key(key)
        chunk_rank = (-1 if tuning.batch_chunk is None
                      else tuning.batch_chunk)
        return (seconds, chunk_rank)

    best_key, _ = min(table.entries.items(), key=order)
    return parse_candidate_key(best_key)


# ----------------------------------------------------------------------
# Measurement (times the real engine)
# ----------------------------------------------------------------------
def default_candidates(batch: int) -> List[EngineTuning]:
    """The candidate grid: the reference heuristic and full-batch
    chunking."""
    chunks: List[Optional[int]] = [None]
    if batch > 1:
        chunks.append(batch)
    return [EngineTuning(batch_chunk=chunk) for chunk in chunks]


def measure_engine(engine, batch: int = 8,
                   candidates: Optional[Iterable[EngineTuning]] = None,
                   repeats: int = 3, rng_seed: int = 0) -> MeasurementTable:
    """Time the adjoint pipeline under each candidate tuning.

    Builds a sibling engine per candidate (same kernels/precision/
    backend, different tuning) and takes best-of-``repeats`` wall
    clock on one ``error_and_gradient_wrt_mask`` call over ``batch``
    random masks.  Device backends are synchronized around the timer.
    """
    import numpy as np

    from repro.litho.engine import LithoEngine

    grid = engine.grid
    rng = np.random.default_rng(rng_seed)
    masks = engine.backend.asarray(
        rng.random((batch, grid, grid)), dtype=engine._rdtype)
    targets = engine.backend.asarray(
        (rng.random((batch, grid, grid)) > 0.5), dtype=engine._rdtype)

    (pb, apb) = engine.passband_shape
    table = MeasurementTable(
        backend=engine.backend.name, precision=engine.precision,
        grid=grid, batch=batch,
        flops=adjoint_flops(grid, engine.raster_size, pb, apb,
                            len(engine.kernels.weights), batch))
    for tuning in (default_candidates(batch) if candidates is None
                   else candidates):
        candidate = LithoEngine(kernels=engine.kernels,
                                precision=engine.precision,
                                backend=engine.backend, tuning=tuning)
        candidate.error_and_gradient_wrt_mask(masks, targets)  # warm-up
        best = float("inf")
        for _ in range(repeats):
            engine.backend.synchronize()
            started = time.perf_counter()
            candidate.error_and_gradient_wrt_mask(masks, targets)
            engine.backend.synchronize()
            best = min(best, time.perf_counter() - started)
        table.add(tuning, best)
    return table


@dataclass
class AutotuneResult:
    tuning: EngineTuning
    table: MeasurementTable

    @property
    def gflops(self) -> float:
        return self.table.gflops(candidate_key(self.tuning))


def autotune_engine(engine, batch: int = 8,
                    candidates: Optional[Iterable[EngineTuning]] = None,
                    repeats: int = 3) -> AutotuneResult:
    """Measure + choose in one call (does not mutate ``engine``)."""
    table = measure_engine(engine, batch=batch, candidates=candidates,
                           repeats=repeats)
    return AutotuneResult(tuning=choose_tuning(table), table=table)


# ----------------------------------------------------------------------
# Preset persistence (taoari-style committed config tables)
# ----------------------------------------------------------------------
def preset_key(backend: str, precision: str, grid: int,
               hardware: Optional[str] = None) -> str:
    return (f"{backend}/{precision}/grid{grid}/"
            f"{hardware if hardware is not None else hardware_key()}")


def save_preset(path: Union[str, Path], result: AutotuneResult,
                hardware: Optional[str] = None) -> Dict:
    """Merge one autotune result into a preset file; returns the
    full on-disk document."""
    path = Path(path)
    document = {"schema": SCHEMA_VERSION, "presets": {}}
    if path.exists():
        loaded = json.loads(path.read_text())
        if loaded.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"preset schema {loaded.get('schema')!r} != {SCHEMA_VERSION}")
        document = loaded
    table = result.table
    key = preset_key(table.backend, table.precision, table.grid,
                     hardware if hardware is not None else table.hardware)
    document.setdefault("presets", {})[key] = {
        "tuning": result.tuning.to_dict(),
        "gflops": round(result.gflops, 3),
        "measurements": table.to_dict(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def load_preset(path: Union[str, Path], backend: str, precision: str,
                grid: int,
                hardware: Optional[str] = None) -> Optional[EngineTuning]:
    """Look up a persisted tuning.

    Prefers the exact hardware key; falls back to any preset matching
    ``backend/precision/grid`` (a portable default is better than the
    untuned heuristic when the exact machine was never measured).
    Returns ``None`` when nothing matches or the file is absent.
    """
    path = Path(path)
    if not path.exists():
        return None
    document = json.loads(path.read_text())
    if document.get("schema") != SCHEMA_VERSION:
        return None
    presets = document.get("presets", {})
    exact = presets.get(preset_key(backend, precision, grid, hardware))
    if exact is not None:
        return EngineTuning.from_dict(exact["tuning"])
    prefix = f"{backend}/{precision}/grid{grid}/"
    for key in sorted(presets):
        if key.startswith(prefix):
            return EngineTuning.from_dict(presets[key]["tuning"])
    return None


def env_tuning(backend: str, precision: str, grid: int
               ) -> Optional[EngineTuning]:
    """Tuning from the ``REPRO_AUTOTUNE`` environment variable.

    Unset/empty/``off`` disables preset lookup (engines keep their
    built-in heuristics); any other value is a preset file path.
    """
    value = os.environ.get("REPRO_AUTOTUNE", "").strip()
    if not value or value.lower() in ("off", "0", "none"):
        return None
    return load_preset(value, backend, precision, grid)
