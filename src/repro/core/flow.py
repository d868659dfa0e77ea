"""The end-to-end GAN-OPC mask optimization flow (Figure 6).

At inference the trained generator produces a quasi-optimal mask from
the target in a single forward pass ("0.2 s per image, ignorable"), and
a short ILT refinement polishes it.  The paper's headline numbers come
from this flow: refinement from the generator's warm start stops
earlier *and* at lower L2 than ILT from scratch (Table 2: ~0.91x L2 at
~0.49x runtime).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs import trace

from ..ilt.optimizer import ILTConfig, ILTOptimizer, ILTResult
from ..litho.conditions import ConditionSet
from ..litho.config import LithoConfig
from ..litho.engine import LithoEngine
from ..litho.kernels import KernelSet, build_kernels
from ..runtime import RunLogger
from .generator import MaskGenerator


@dataclass
class FlowResult:
    """Outcome of one GAN-OPC flow run on a target clip.

    Attributes
    ----------
    mask:
        Final binary mask after ILT refinement.
    generated_mask:
        The generator's raw (relaxed) output before refinement.
    l2:
        Discrete squared-L2 error of :attr:`mask` in pixels.
    generation_seconds / refinement_seconds:
        Timing split of the two flow stages; their sum is the "RT"
        column of Table 2.
    ilt_result:
        Full refinement record (histories, iteration count).
    """

    mask: np.ndarray
    generated_mask: np.ndarray
    l2: float
    generation_seconds: float
    refinement_seconds: float
    ilt_result: ILTResult

    @property
    def runtime_seconds(self) -> float:
        return self.generation_seconds + self.refinement_seconds


class GanOpcFlow:
    """Generator inference + ILT refinement (Figure 6).

    Parameters
    ----------
    generator:
        A trained :class:`~repro.core.generator.MaskGenerator`.
    litho_config:
        Lithography model used by the refiner.
    refine_config:
        ILT settings for the refinement stage; defaults to a short run
        with early stopping — the warm start makes long runs pointless.
    logger:
        Optional :class:`~repro.runtime.RunLogger`; each
        :meth:`optimize` call then emits one schema-validated ``flow``
        telemetry record with the stage wall-clocks and the
        litho-engine call counts it consumed.
    conditions:
        Optional process-window corner stack handed to the refiner; a
        non-nominal ``refine_config.pw_objective`` descends its corner
        aggregation instead of the nominal-only objective.
    """

    def __init__(self, generator: MaskGenerator,
                 litho_config: Optional[LithoConfig] = None,
                 refine_config: Optional[ILTConfig] = None,
                 kernels: Optional[KernelSet] = None,
                 engine: Optional[LithoEngine] = None,
                 logger: Optional[RunLogger] = None,
                 conditions: Optional[ConditionSet] = None):
        self.generator = generator
        self.litho_config = litho_config or LithoConfig.paper()
        if engine is None:
            engine = LithoEngine.for_kernels(
                kernels or build_kernels(self.litho_config))
        self.engine = engine
        self.logger = logger
        self.conditions = conditions
        self.refiner = ILTOptimizer(
            self.litho_config,
            refine_config or ILTConfig(max_iterations=50, patience=4),
            engine=engine, conditions=conditions)

    def optimize(self, target: np.ndarray,
                 refine_iterations: Optional[int] = None) -> FlowResult:
        """Run the full flow on a binary target image."""
        target = np.asarray(target, dtype=float)
        litho_before = LithoEngine.stats.snapshot()

        start = time.perf_counter()
        with trace.span("flow.generate"):
            generated = self.generator.generate(target)
        generation_seconds = time.perf_counter() - start

        with trace.span("flow.refine"):
            ilt_result = self.refiner.optimize(
                target, initial_mask=generated,
                max_iterations=refine_iterations)

        if self.logger is not None:
            self.logger.event(
                "flow",
                generation_seconds=generation_seconds,
                refinement_seconds=ilt_result.runtime_seconds,
                refine_iterations=int(ilt_result.iterations),
                l2=float(ilt_result.l2),
                litho=LithoEngine.stats.delta(litho_before))

        return FlowResult(
            mask=ilt_result.mask,
            generated_mask=generated,
            l2=ilt_result.l2,
            generation_seconds=generation_seconds,
            refinement_seconds=ilt_result.runtime_seconds,
            ilt_result=ilt_result,
        )

    def optimize_batch(self, targets: np.ndarray,
                       refine_iterations: Optional[int] = None,
                       workers: int = 1) -> List[FlowResult]:
        """Run the flow on a target stack ``(N, grid, grid)``.

        ``workers > 1`` fans one clip per worker process (generator
        weights broadcast once per worker, images through shared
        memory); float64 results are bit-exact versus the serial loop.
        """
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 3:
            raise ValueError(
                f"targets must be (N, g, g), got shape {targets.shape}")
        if workers <= 1:
            return [self.optimize(t, refine_iterations=refine_iterations)
                    for t in targets]
        from ..parallel.flow import parallel_flow
        return parallel_flow(self.generator, targets, self.litho_config,
                             self.refiner.config,
                             refine_iterations=refine_iterations,
                             workers=workers,
                             precision=self.engine.precision,
                             conditions=self.conditions)
