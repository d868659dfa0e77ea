"""Steepest-descent inverse lithography (the paper's baseline [7] and
the refinement stage of the GAN-OPC flow, Fig. 6).

The optimizer walks the unconstrained mask parameters ``M`` down the
relaxed lithography error (Eqs. 11-14), periodically binarizing and
re-simulating to track the best *discrete* mask seen — the quantity
Table 2 reports.  Two modes matter to the reproduction:

* **from scratch** (``initial_mask=None``): parameters start from the
  target polygons, which is how the MOSAIC-style baseline column of
  Table 2 is produced;
* **refinement** (``initial_mask=G(Z_t)``): parameters start from the
  generator's quasi-optimal mask; the paper's headline result is that
  this warm start both converges in far fewer iterations (~0.5x runtime)
  and reaches lower L2.

``ILTConfig.pw_objective`` alone selects the objective.  ``"nominal"``
(the paper's flow) descends the nominal error; ``"weighted"`` and
``"worst"`` descend a corner-stack objective over a
:class:`~repro.litho.conditions.ConditionSet` — the weighted corner
average or the worst corner — evaluated through the engine's batched
condition stack.  The best-discrete-mask tracking stays nominal so
Table 2 columns remain comparable.

**Descent precision.**  The Eq. 14 error and gradient always run on the
f32 engine of the kernel set (:data:`DESCENT_PRECISION`), whatever the
precision of the engine the optimizer is given; the parameters, the
momentum velocity and the update stay float64.  Everything that
decides or reports a result — the discrete score, the best-mask
choice, :attr:`ILTResult.l2` — runs on the caller's engine, so an f64
caller keeps f64 Table 2 numbers (DESIGN.md §10).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.obs import trace

from ..litho.conditions import PW_OBJECTIVES, ConditionSet
from ..litho.config import LithoConfig
from ..litho.engine import LithoEngine
from ..litho.kernels import KernelSet, build_kernels
from ..litho.resist import sigmoid_mask

#: Precision of the Eq. 14 descent engine; a constant, not an option.
DESCENT_PRECISION = "f32"


@dataclass(frozen=True)
class ILTConfig:
    """Hyper-parameters of the steepest-descent ILT engine.

    Attributes
    ----------
    max_iterations:
        Upper bound on gradient steps.
    step_size:
        Learning rate of the parameter update.
    momentum:
        Heavy-ball momentum coefficient (0 disables).
    init_scale:
        Magnitude of the initial parameters: ``M_0 = init_scale *
        (2 Z_t - 1)`` maps target/background to +/-init_scale.
    eval_interval:
        Every this many iterations the mask is binarized, re-simulated
        with the *hard* resist and scored; the best discrete mask is
        retained (ILT progress is not monotone in the discrete metric).
    stop_l2:
        Early stop once the discrete L2 falls at or below this value
        (None disables).
    patience:
        Early stop when the best discrete L2 has not improved for this
        many evaluations (None disables).
    pw_objective:
        ``"nominal"`` (default) optimizes the nominal condition only;
        ``"weighted"`` / ``"worst"`` optimize the corner stack of the
        optimizer's :class:`ConditionSet` instead.
    """

    max_iterations: int = 200
    step_size: float = 1.0
    momentum: float = 0.9
    init_scale: float = 1.0
    eval_interval: int = 5
    stop_l2: Optional[float] = None
    patience: Optional[int] = 10
    pw_objective: str = "nominal"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        if self.pw_objective not in PW_OBJECTIVES:
            raise ValueError(
                f"pw_objective must be one of {PW_OBJECTIVES}, "
                f"got {self.pw_objective!r}")


@dataclass
class ILTResult:
    """Outcome of an ILT run.

    Attributes
    ----------
    mask:
        Best binary mask found (by discrete nominal L2).
    mask_relaxed:
        Relaxed mask image at the final iteration.
    params:
        Final unconstrained parameters (useful to resume).
    l2:
        Discrete squared-L2 error of :attr:`mask` (Definition 1),
        in pixels; multiply by ``pixel_area_nm2`` for nm^2.
    relaxed_history:
        Relaxed error ``E`` per iteration (the ILT training curve).
    l2_history:
        Discrete L2 at each evaluation point.
    iterations:
        Gradient steps actually executed.
    runtime_seconds:
        Wall-clock time of the optimization loop.
    converged:
        True when an early-stop criterion fired before the iteration cap.
    """

    mask: np.ndarray
    mask_relaxed: np.ndarray
    params: np.ndarray
    l2: float
    relaxed_history: List[float] = field(default_factory=list)
    l2_history: List[float] = field(default_factory=list)
    iterations: int = 0
    runtime_seconds: float = 0.0
    converged: bool = False


class ILTOptimizer:
    """Pixel-based mask optimizer via steepest descent on Eq. 11.

    Parameters
    ----------
    litho_config:
        Lithography model configuration.
    config:
        Optimizer hyper-parameters.
    kernels:
        Optional prebuilt kernel set (otherwise built and cached).
    engine:
        Optional shared :class:`LithoEngine`; takes precedence over
        ``kernels`` and lets flows/harnesses reuse one engine (and its
        cached adjoint spectra) across every optimizer they build.  It
        scores the discrete masks; the descent itself runs on the
        kernel set's memoized :data:`DESCENT_PRECISION` engine.
    conditions:
        Optional process-window corner stack that a non-nominal
        ``config.pw_objective`` descends; without one, the paper's dose
        corners (:meth:`ConditionSet.dose_corners`) are used.  A
        nominal objective ignores it.
    """

    def __init__(self, litho_config: Optional[LithoConfig] = None,
                 config: Optional[ILTConfig] = None,
                 kernels: Optional[KernelSet] = None,
                 engine: Optional[LithoEngine] = None,
                 conditions: Optional[ConditionSet] = None):
        self.litho_config = litho_config or LithoConfig.paper()
        self.config = config or ILTConfig()
        if engine is None:
            engine = LithoEngine.for_kernels(
                kernels or build_kernels(self.litho_config))
        self.engine = engine
        self.kernels = engine.kernels

        #: the corner stack the objective descends (None: nominal)
        self.conditions: Optional[ConditionSet] = None
        if self.config.pw_objective == "nominal":
            self._descent_engine = LithoEngine.for_kernels(
                self.kernels, DESCENT_PRECISION)
        else:
            self.conditions = conditions or ConditionSet.dose_corners(
                self.litho_config.dose_variation)
            self._descent_engine = LithoEngine.for_conditions(
                self.kernels, self.conditions, DESCENT_PRECISION)
        #: optional :class:`~repro.runtime.telemetry.RunLogger`; when
        #: set, each evaluation point emits a ``quality_sample`` record
        #: tagged with :attr:`quality_context` (clip/method/stage).
        self.logger = None
        self.quality_context: dict = {}

    # ------------------------------------------------------------------
    def initial_params(self, target: np.ndarray,
                       initial_mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Build starting parameters from the target or a warm-start mask.

        A warm-start mask (the generator output in the GAN-OPC flow) is
        mapped through the logit so that ``sigmoid(beta * M_0)``
        reproduces it; values are clipped away from {0, 1} to keep the
        logit finite.
        """
        scale = self.config.init_scale
        if initial_mask is None:
            return scale * (2.0 * np.asarray(target, dtype=float) - 1.0)
        mask = np.clip(np.asarray(initial_mask, dtype=float), 1e-3, 1.0 - 1e-3)
        return np.log(mask / (1.0 - mask)) / self.litho_config.mask_steepness

    # ------------------------------------------------------------------
    def _objective_gradient(self, params: np.ndarray, target: np.ndarray):
        cfg = self.litho_config
        if self.conditions is not None:
            return self._descent_engine.condition_error_and_gradient(
                params, target, objective=self.config.pw_objective,
                threshold=cfg.threshold,
                resist_steepness=cfg.resist_steepness,
                mask_steepness=cfg.mask_steepness)
        return self._descent_engine.error_and_gradient(
            params, target, threshold=cfg.threshold,
            resist_steepness=cfg.resist_steepness,
            mask_steepness=cfg.mask_steepness)

    def _discrete_score(self, params: np.ndarray, target: np.ndarray):
        return self.engine.binarized_score(
            params, target, mask_steepness=self.litho_config.mask_steepness)

    # ------------------------------------------------------------------
    def optimize(self, target: np.ndarray,
                 initial_mask: Optional[np.ndarray] = None,
                 max_iterations: Optional[int] = None) -> ILTResult:
        """Run ILT on ``target``; see the module docstring for modes.

        Parameters
        ----------
        target:
            Binary target image ``Z_t`` on the simulator grid.
        initial_mask:
            Optional warm-start mask in [0, 1] (GAN-OPC refinement).
        max_iterations:
            Override of ``config.max_iterations`` for this call
            (``None`` keeps the config's; at least 1, like the config).
        """
        target = np.asarray(target, dtype=float)
        if target.shape != (self.litho_config.grid,) * 2:
            raise ValueError(
                f"target shape {target.shape} does not match simulator grid "
                f"{self.litho_config.grid}")
        cfg = self.config
        if max_iterations is not None and max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {max_iterations}")
        iterations = (cfg.max_iterations if max_iterations is None
                      else max_iterations)

        start = time.perf_counter()
        params = self.initial_params(target, initial_mask)
        velocity = np.zeros_like(params)

        best_mask, best_l2 = self._discrete_score(params, target)
        descent_target = target.astype(np.float32)
        relaxed_history: List[float] = []
        l2_history: List[float] = [best_l2]
        stall = 0
        converged = False
        step = 0

        for step in range(1, iterations + 1):
            with trace.span("ilt.step", iteration=step):
                error, grad = self._objective_gradient(params,
                                                       descent_target)
                relaxed_history.append(error)
                velocity = cfg.momentum * velocity - cfg.step_size * grad
                params = params + velocity

            if step % cfg.eval_interval == 0 or step == iterations:
                with trace.span("ilt.evaluate", iteration=step):
                    mask, l2 = self._discrete_score(params, target)
                l2_history.append(l2)
                if self.logger is not None:
                    self.logger.quality_sample(
                        step, error, l2=float(l2),
                        **self.quality_context)
                if l2 < best_l2:
                    best_l2 = l2
                    best_mask = mask
                    stall = 0
                else:
                    stall += 1
                if cfg.stop_l2 is not None and best_l2 <= cfg.stop_l2:
                    converged = True
                    break
                if cfg.patience is not None and stall >= cfg.patience:
                    converged = True
                    break

        runtime = time.perf_counter() - start
        return ILTResult(
            mask=best_mask,
            mask_relaxed=sigmoid_mask(params, self.litho_config.mask_steepness),
            params=params,
            l2=best_l2,
            relaxed_history=relaxed_history,
            l2_history=l2_history,
            iterations=step,
            runtime_seconds=runtime,
            converged=converged,
        )
