"""Parallel ILT: fan independent clips across the worker pool.

Per-clip ILT runs (the training library's reference masks, built by
:meth:`~repro.layoutgen.dataset.SyntheticDataset.precompute`) are
embarrassingly parallel: each clip's descent touches nothing but its
own target.  :func:`parallel_ilt` runs one :func:`_ilt_clip_task` per
clip.  On a pool, targets (and optional warm-start masks) ship through
one shared-memory segment and the image-shaped outputs — best mask,
relaxed mask, final parameters — are written into another, so only
scalars and histories cross the pickle boundary; with one worker the
same task runs inline on plain arrays.

Determinism: ILT is noise-free steepest descent, and every clip runs
the identical task on identical float64 inputs, so pooled results are
**bit-exact** equal to an inline run at either precision (asserted in
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
from .pool import (PoolStats, TaskRunner, WorkerPool, attach_array,
                   worker_engine)


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
def _ilt_clip_task(index: int, targets_spec, initial_spec, out_spec,
                   litho_config: LithoConfig, ilt_config: ILTConfig,
                   max_iterations: Optional[int],
                   conditions: Optional[ConditionSet] = None):
    """Optimize one clip; images go to the output array, scalars
    return."""
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
    """Per-clip ILT over a target stack, one :func:`_ilt_clip_task` per
    clip, through a :class:`~repro.parallel.pool.TaskRunner`.

    Parameters
    ----------
    targets:
        Binary target stack ``(N, grid, grid)``.
    workers:
        Worker processes; ``1`` runs the same task inline, in order.
    precision:
        Precision of the engine that scores each clip (``None`` =
        ``"f64"``); the descent runs in f32 either way.
    initial_masks:
        Optional per-clip warm starts ``(N, grid, grid)``.
    pool:
        Reuse an existing pool (its config/precision win); otherwise
        ``workers > 1`` creates one and tears it down inside this call.
    progress:
        Optional ``(done, total, pid, seconds)`` callback, called after
        every finished clip (``precompute(progress=True)`` prints a
        line every ten masks from it).

    Each result's images are views of one ``(3, N, grid, grid)`` array
    (best mask, relaxed mask, parameters); copy what outlives it.
    """
    litho_config = litho_config or LithoConfig.paper()
    ilt_config = ilt_config or ILTConfig()
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 3:
        raise ValueError(f"targets must be (N, g, g), got {targets.shape}")
    n, grid = targets.shape[0], targets.shape[-1]
    started = time.perf_counter()

    with TaskRunner(workers, pool, litho_config, precision) as runner:
        targets_handle = runner.share(targets)
        initial_handle = (runner.share(np.asarray(initial_masks, dtype=float))
                          if initial_masks is not None else None)
        out_handle = runner.share(np.zeros((3, n, grid, grid)))
        reports = runner.map(
            _ilt_clip_task,
            [(i, targets_handle, initial_handle, out_handle, litho_config,
              ilt_config, max_iterations, conditions)
             for i in range(n)],
            label="parallel.ilt", progress=progress)
        out = runner.collect(out_handle)

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
                             workers=runner.workers,
                             pool_stats=runner.pool_stats)
