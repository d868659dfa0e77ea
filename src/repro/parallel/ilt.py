"""Parallel ILT: fan independent clips across the worker pool.

Per-clip ILT runs (reference-mask generation, the Table 2 baseline
column, Fig. 6 refinement over a benchmark suite) are embarrassingly
parallel: each clip's descent touches nothing but its own target.
:func:`parallel_ilt` distributes them one clip per task, with targets
(and optional warm-start masks) shipped through one shared-memory
segment and the image-shaped outputs — best mask, relaxed mask, final
parameters — written into another.  Only scalars and histories cross
the pickle boundary, so the transported bytes are independent of grid
size.

Determinism: ILT is noise-free steepest descent, and each worker runs
the identical :class:`~repro.ilt.optimizer.ILTOptimizer` code on the
identical float64 inputs, so parallel results are **bit-exact** equal
to a serial per-clip loop at either precision (asserted in
``tests/parallel``).  The descent itself runs on the f32 engine; its
documented tolerance is a relaxed litho-error delta of at most 1e-3
versus an f64 descent (see DESIGN.md §10).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..ilt.optimizer import ILTConfig, ILTOptimizer, ILTResult
from ..litho.conditions import ConditionSet
from ..litho.config import LithoConfig
from .pool import PoolStats, WorkerPool, attach_array, worker_engine
from .shm import ShmSpec, SharedArray


@dataclass
class ParallelILTResult:
    """Outcome of a parallel per-clip ILT run."""

    results: List[ILTResult]
    runtime_seconds: float
    workers: int
    pool_stats: Optional[PoolStats] = None

    @property
    def masks(self) -> np.ndarray:
        return np.stack([r.mask for r in self.results])

    @property
    def l2(self) -> np.ndarray:
        return np.array([r.l2 for r in self.results])


# ----------------------------------------------------------------------
# Worker tasks (module-level: must be picklable)
# ----------------------------------------------------------------------
def _ilt_clip_task(index: int, targets_spec: ShmSpec,
                   initial_spec: Optional[ShmSpec], out_spec: ShmSpec,
                   litho_config: LithoConfig, ilt_config: ILTConfig,
                   max_iterations: Optional[int],
                   conditions: Optional[ConditionSet] = None):
    """Optimize one clip; images go to shared memory, scalars return."""
    targets = attach_array(targets_spec)
    initial = (attach_array(initial_spec)[index]
               if initial_spec is not None else None)
    optimizer = ILTOptimizer(litho_config, ilt_config,
                             engine=worker_engine(litho_config),
                             conditions=conditions)
    result = optimizer.optimize(targets[index], initial_mask=initial,
                                max_iterations=max_iterations)
    out = attach_array(out_spec)
    out[0, index] = result.mask
    out[1, index] = result.mask_relaxed
    out[2, index] = result.params
    return (index, result.l2, result.relaxed_history, result.l2_history,
            result.iterations, result.runtime_seconds, result.converged)


# ----------------------------------------------------------------------
# Parent-side driver
# ----------------------------------------------------------------------
def parallel_ilt(targets: np.ndarray,
                 litho_config: Optional[LithoConfig] = None,
                 ilt_config: Optional[ILTConfig] = None,
                 workers: int = 1,
                 precision: Optional[str] = None,
                 initial_masks: Optional[np.ndarray] = None,
                 max_iterations: Optional[int] = None,
                 pool: Optional[WorkerPool] = None,
                 conditions: Optional[ConditionSet] = None,
                 progress=None) -> ParallelILTResult:
    """Per-clip ILT over a target stack, fanned across worker processes.

    Parameters
    ----------
    targets:
        Binary target stack ``(N, grid, grid)``.
    workers:
        Worker processes; ``1`` runs serially in-process (the parity
        reference — identical code path, no pool).
    precision:
        Precision of the engine that scores each clip (``None`` =
        ``"f64"``); the descent runs in f32 either way.
    initial_masks:
        Optional per-clip warm starts ``(N, grid, grid)``.
    pool:
        Reuse an existing pool (its config/precision win); otherwise a
        pool is created and torn down inside this call.
    progress:
        Optional ``(done, total, pid, seconds)`` callback forwarded to
        :meth:`WorkerPool.map` — what ``repro monitor`` renders live.
    """
    litho_config = litho_config or LithoConfig.paper()
    ilt_config = ilt_config or ILTConfig()
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 3:
        raise ValueError(f"targets must be (N, g, g), got {targets.shape}")
    n = targets.shape[0]
    started = time.perf_counter()

    if workers <= 1 and pool is None:
        from ..litho.engine import LithoEngine
        from ..litho.kernels import build_kernels
        engine = LithoEngine.for_kernels(build_kernels(litho_config),
                                         precision=precision)
        optimizer = ILTOptimizer(litho_config, ilt_config, engine=engine,
                                 conditions=conditions)
        results = [optimizer.optimize(
                       targets[i],
                       initial_mask=(initial_masks[i]
                                     if initial_masks is not None else None),
                       max_iterations=max_iterations)
                   for i in range(n)]
        return ParallelILTResult(results=results,
                                 runtime_seconds=time.perf_counter() - started,
                                 workers=1)

    grid = targets.shape[-1]
    own_pool = pool is None
    if own_pool:
        pool = WorkerPool(workers, litho_config=litho_config,
                          precision=precision)
    shared_targets = SharedArray.from_array(targets)
    shared_initial = (SharedArray.from_array(np.asarray(initial_masks,
                                                        dtype=float))
                      if initial_masks is not None else None)
    shared_out = SharedArray.create((3, n, grid, grid), np.float64)
    try:
        reports = pool.map(
            _ilt_clip_task,
            [(i, shared_targets.spec,
              shared_initial.spec if shared_initial is not None else None,
              shared_out.spec, litho_config, ilt_config, max_iterations,
              conditions)
             for i in range(n)],
            label="parallel.ilt", progress=progress)
        out = np.array(shared_out.array, copy=True)
    finally:
        shared_targets.close()
        shared_targets.unlink()
        if shared_initial is not None:
            shared_initial.close()
            shared_initial.unlink()
        shared_out.close()
        shared_out.unlink()
        if own_pool:
            pool.shutdown()

    results: List[Optional[ILTResult]] = [None] * n
    for (index, l2, relaxed_history, l2_history, iterations,
         runtime_seconds, converged) in reports:
        results[index] = ILTResult(
            mask=out[0, index], mask_relaxed=out[1, index],
            params=out[2, index], l2=l2,
            relaxed_history=relaxed_history, l2_history=l2_history,
            iterations=iterations, runtime_seconds=runtime_seconds,
            converged=converged)
    return ParallelILTResult(results=results,
                             runtime_seconds=time.perf_counter() - started,
                             workers=pool.workers, pool_stats=pool.stats)
