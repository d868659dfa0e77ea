"""Parallel GAN-OPC flow and Table 2 evaluation.

The generate-then-refine flow (Fig. 6) is per-clip independent, so a
batch of targets fans one clip per task.  Generator weights are
broadcast once per worker through the pool's ``state`` channel (the
executor initializer), never per task; targets and all image-shaped
outputs travel through shared memory.  Each worker rebuilds the
generator from the broadcast ``state_dict`` and runs the identical
:class:`~repro.core.flow.GanOpcFlow` code on its warm engine, so
float64 parallel flow results are bit-exact versus a serial loop.

:func:`_table2_clip_task` is the same idea for the full Table 2
experiment: one task evaluates all three methods (ILT from scratch,
GAN-OPC, PGAN-OPC) on one benchmark clip.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from ..core.flow import FlowResult, GanOpcFlow
from ..core.generator import MaskGenerator
from ..ilt.optimizer import ILTConfig, ILTOptimizer, ILTResult
from ..litho.conditions import ConditionSet
from ..litho.config import LithoConfig
from ..litho.engine import LithoEngine
from .pool import WorkerPool, attach_array, worker_engine, worker_state
from .shm import ShmSpec, SharedArray


def generator_payload(generator: MaskGenerator) -> Dict:
    """Broadcastable reconstruction recipe for a generator."""
    return {"channels": generator.channels,
            "residual_scale": generator.residual_scale,
            "weights": generator.state_dict()}


def _rebuild_generator(payload: Dict) -> MaskGenerator:
    generator = MaskGenerator(payload["channels"],
                              residual_scale=payload["residual_scale"],
                              rng=np.random.default_rng(0))
    generator.load_state_dict(payload["weights"])
    generator.eval()
    return generator


# ----------------------------------------------------------------------
# Worker tasks
# ----------------------------------------------------------------------
def _flow_task(index: int, targets_spec: ShmSpec, out_spec: ShmSpec,
               litho_config: LithoConfig, refine_config: ILTConfig,
               refine_iterations: Optional[int],
               conditions: Optional[ConditionSet] = None):
    """Run the full flow on one target of the shared stack."""
    generator = _rebuild_generator(worker_state())
    flow = GanOpcFlow(generator, litho_config, refine_config,
                      engine=worker_engine(litho_config),
                      conditions=conditions)
    targets = attach_array(targets_spec)
    result = flow.optimize(targets[index],
                           refine_iterations=refine_iterations)
    out = attach_array(out_spec)
    out[0, index] = result.mask
    out[1, index] = result.generated_mask
    out[2, index] = result.ilt_result.mask_relaxed
    out[3, index] = result.ilt_result.params
    ilt = result.ilt_result
    return (index, result.l2, result.generation_seconds,
            result.refinement_seconds, ilt.relaxed_history, ilt.l2_history,
            ilt.iterations, ilt.runtime_seconds, ilt.converged)


def _table2_clip_task(slot: int, masks_spec: ShmSpec, grid: int,
                      litho_config: LithoConfig, ilt_iterations: int,
                      refine_iterations: int,
                      conditions: Optional[ConditionSet] = None,
                      pw_objective: str = "nominal"):
    """Evaluate ILT / GAN-OPC / PGAN-OPC on one benchmark clip."""
    from ..geometry.raster import rasterize
    from ..metrics.report import evaluate_mask

    state = worker_state()
    clip = state["clips"][slot]
    engine = worker_engine(litho_config)
    condition_engine = (LithoEngine.for_conditions(engine.kernels, conditions,
                                                   engine.precision)
                        if conditions is not None else None)
    target = (rasterize(clip.layout, grid) >= 0.5).astype(float)
    masks_out = attach_array(masks_spec)

    evaluations: Dict[str, object] = {}
    stages: Dict[str, Dict[str, float]] = {}

    ilt = ILTOptimizer(litho_config,
                       ILTConfig(max_iterations=ilt_iterations,
                                 pw_objective=pw_objective),
                       engine=engine, conditions=conditions)
    started = time.perf_counter()
    ilt_result = ilt.optimize(target)
    ilt_runtime = time.perf_counter() - started
    evaluations["ILT"] = evaluate_mask(
        engine, ilt_result.mask, target, layout=clip.layout,
        name=clip.name, runtime_seconds=ilt_runtime,
        condition_engine=condition_engine)
    stages["ILT"] = {"generation": 0.0, "refinement": ilt_runtime}
    masks_out[0, slot] = ilt_result.mask

    refine_cfg = ILTConfig(max_iterations=refine_iterations, patience=4,
                           pw_objective=pw_objective)
    for method_index, method in enumerate(("GAN-OPC", "PGAN-OPC"), start=1):
        generator = _rebuild_generator(state[method])
        flow = GanOpcFlow(generator, litho_config, refine_cfg, engine=engine,
                          conditions=conditions)
        flow_result = flow.optimize(target)
        evaluations[method] = evaluate_mask(
            engine, flow_result.mask, target, layout=clip.layout,
            name=clip.name, runtime_seconds=flow_result.runtime_seconds,
            condition_engine=condition_engine)
        stages[method] = {"generation": flow_result.generation_seconds,
                          "refinement": flow_result.refinement_seconds}
        masks_out[method_index, slot] = flow_result.mask

    return (slot, evaluations, stages)


# ----------------------------------------------------------------------
# Parent-side driver
# ----------------------------------------------------------------------
def parallel_flow(generator: MaskGenerator, targets: np.ndarray,
                  litho_config: LithoConfig, refine_config: ILTConfig,
                  refine_iterations: Optional[int] = None,
                  workers: int = 2,
                  precision: Optional[str] = None,
                  pool: Optional[WorkerPool] = None,
                  conditions: Optional[ConditionSet] = None,
                  progress=None) -> List[FlowResult]:
    """Fan :meth:`GanOpcFlow.optimize` over a target stack.

    ``progress`` (``(done, total, pid, seconds)``) is forwarded to
    :meth:`WorkerPool.map`; pass an external ``pool`` to read fleet
    telemetry (``pool.stats.fleet``) after the run.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 3:
        raise ValueError(f"targets must be (N, g, g), got {targets.shape}")
    n, grid = targets.shape[0], targets.shape[-1]

    own_pool = pool is None
    if own_pool:
        pool = WorkerPool(workers, litho_config=litho_config,
                          precision=precision,
                          state=generator_payload(generator))
    shared_targets = SharedArray.from_array(targets)
    shared_out = SharedArray.create((4, n, grid, grid), np.float64)
    try:
        reports = pool.map(
            _flow_task,
            [(i, shared_targets.spec, shared_out.spec, litho_config,
              refine_config, refine_iterations, conditions)
             for i in range(n)],
            label="parallel.flow", progress=progress)
        out = np.array(shared_out.array, copy=True)
    finally:
        shared_targets.close()
        shared_targets.unlink()
        shared_out.close()
        shared_out.unlink()
        if own_pool:
            pool.shutdown()

    results: List[Optional[FlowResult]] = [None] * n
    for (index, l2, generation_seconds, refinement_seconds,
         relaxed_history, l2_history, iterations, ilt_runtime,
         converged) in reports:
        ilt_result = ILTResult(
            mask=out[0, index], mask_relaxed=out[2, index],
            params=out[3, index], l2=l2,
            relaxed_history=relaxed_history, l2_history=l2_history,
            iterations=iterations, runtime_seconds=ilt_runtime,
            converged=converged)
        results[index] = FlowResult(
            mask=out[0, index], generated_mask=out[1, index], l2=l2,
            generation_seconds=generation_seconds,
            refinement_seconds=refinement_seconds, ilt_result=ilt_result)
    return results
