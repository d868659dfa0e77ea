"""Shared robustness harness for the training loops.

:class:`TrainingHarness` wraps one training run (Algorithm 1 or
Algorithm 2) with the three substrate services in one place:

* **checkpoint/resume** — periodic atomic checkpoints of module
  weights, optimizer moments, RNG state, iteration counter and loss
  history; ``RunConfig.resume`` continues bit-exactly from the latest
  checkpoint in ``checkpoint_dir``;
* **guard rails** — non-finite loss / gradient detection with the
  configurable divergence policy of :mod:`repro.runtime.guards`,
  plus optional global gradient-norm clipping;
* **telemetry** — structured records into the run's one stream, the
  :class:`~repro.runtime.telemetry.RunLogger` given as
  ``RunConfig.logger``, each stamped with the phase (``pretrain`` or
  ``gan``), including per-iteration wall-clock and the iteration's
  delta of the process-wide litho counters
  (:attr:`~repro.litho.engine.LithoEngine.stats`), so every engine the
  phase reaches — nominal or corner stack — is counted.  The harness
  opens and closes no file: the run that owns the logger closes it.

The trainers call four hooks: ``begin`` (once), ``begin_iteration`` /
``end_iteration`` (per loop body) and ``finish`` (once); weight updates
go through :meth:`apply_update`, which is where guarding and clipping
happen.  A trainer used without a harness behaves exactly as before —
the substrate is strictly additive.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..litho.engine import LithoEngine
from ..nn.modules import Module
from ..nn.optim import Adam, clip_grad_norm_
from .checkpoint import Checkpointer, capture_state, restore_state
from .guards import POLICIES, DivergenceError, nonfinite_entries
from .telemetry import RunLogger


@dataclass
class RunConfig:
    """Configuration of the robustness substrate for one training run.

    Attributes
    ----------
    checkpoint_dir:
        Directory for ``ckpt-*.npz`` files; ``None`` disables disk
        checkpoints (rollback then restores the in-memory snapshot
        taken at run start).
    checkpoint_every:
        Save every N iterations (0 = only the final checkpoint written
        by ``finish``).
    keep_last:
        Checkpoints retained on disk.
    resume:
        Continue from the latest checkpoint in ``checkpoint_dir``
        (weights, optimizer moments, RNG state and history are all
        restored, so the continuation is bit-identical to an
        uninterrupted run).
    logger:
        The :class:`RunLogger` the phase writes its records to (a run's
        ``quality.jsonl``); ``None`` disables telemetry.
    policy:
        Divergence policy: ``"raise"``, ``"rollback"`` or ``"skip"``.
    max_grad_norm:
        Clip the global gradient norm of each update to this value
        (``None`` disables clipping; the norm is still measured and
        logged).
    lr_backoff:
        Learning-rate multiplier applied to every optimizer on
        rollback.
    max_recoveries:
        Divergence recoveries allowed before escalating to
        :class:`DivergenceError` regardless of policy.
    """

    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 0
    keep_last: int = 3
    resume: bool = False
    logger: Optional[RunLogger] = None
    policy: str = "raise"
    max_grad_norm: Optional[float] = None
    lr_backoff: float = 0.5
    max_recoveries: int = 8

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown divergence policy {self.policy!r}; "
                f"expected one of {POLICIES}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        if not 0.0 < self.lr_backoff <= 1.0:
            raise ValueError("lr_backoff must be in (0, 1]")
        if self.max_recoveries < 0:
            raise ValueError("max_recoveries must be >= 0")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")


class TrainingHarness:
    """Checkpoint/guard/telemetry services around one training loop."""

    def __init__(self, phase: str, modules: Dict[str, Module],
                 optimizers: Dict[str, Adam],
                 config: Optional[RunConfig] = None):
        self.phase = phase
        self.modules = dict(modules)
        self.optimizers = dict(optimizers)
        self.config = config or RunConfig()

        self.checkpointer = (
            Checkpointer(self.config.checkpoint_dir, self.config.keep_last)
            if self.config.checkpoint_dir else None)
        self.logger = self.config.logger

        self.recoveries = 0
        self.last_action = "ok"
        self._grad_norms: Dict[str, float] = {}
        self._snapshot = None
        self._iteration: Optional[int] = None
        self._last_saved_iteration: Optional[int] = None
        self._litho_prev = LithoEngine.stats.snapshot()
        self._run_started = time.perf_counter()
        self._iter_started = self._run_started

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def begin(self, rng: Optional[np.random.Generator],
              history: Dict[str, List[float]],
              total_iterations: int) -> int:
        """Resume if configured; returns the first iteration to run."""
        start_iteration = 0
        if self.config.resume and self.checkpointer is not None:
            path = self.checkpointer.latest_path()
            if path is not None:
                state = self.checkpointer.load(path)
                restore_state(state, self.modules, self.optimizers, rng)
                for name, series in history.items():
                    series.clear()
                    series.extend(state.history.get(name, []))
                start_iteration = state.iteration
                self._last_saved_iteration = state.iteration
                self._log("resume", iteration=start_iteration,
                          checkpoint=path)
        self._snapshot = capture_state(start_iteration, self.modules,
                                       self.optimizers, phase=self.phase)
        self._run_started = time.perf_counter()
        self._iter_started = self._run_started
        self._log("run_start", iteration=start_iteration,
                  total_iterations=int(total_iterations),
                  policy=self.config.policy)
        return start_iteration

    def begin_iteration(self, iteration: int) -> None:
        self._iteration = iteration
        self._grad_norms = {}
        self.last_action = "ok"
        self._iter_started = time.perf_counter()

    #: loss keys that define a phase's quality objective, in preference
    #: order: the litho error for Algorithm 2 pre-training, the L2 to
    #: the reference mask for Algorithm 1 GAN training.
    QUALITY_KEYS = ("litho_error", "l2_to_reference")

    def end_iteration(self, iteration: int,
                      rng: Optional[np.random.Generator],
                      history: Dict[str, List[float]],
                      losses: Dict[str, float]) -> None:
        """Record telemetry and checkpoint at the configured cadence."""
        seconds = time.perf_counter() - self._iter_started
        if self.logger is not None:
            self._log("iteration", iteration=iteration, losses=losses,
                      seconds=seconds, grad_norms=self._grad_norms or None,
                      action=self.last_action, litho=self._litho_delta())
            objective = next(
                (losses[key] for key in self.QUALITY_KEYS if key in losses),
                next(iter(losses.values())) if losses else float("nan"))
            self._log("quality_sample", iteration=iteration,
                      objective=objective, stage=self.phase,
                      seconds=seconds)
        every = self.config.checkpoint_every
        if self.checkpointer and every and (iteration + 1) % every == 0:
            self._save(iteration + 1, rng, history)

    def finish(self, iteration: int,
               rng: Optional[np.random.Generator],
               history: Dict[str, List[float]]) -> None:
        """Write the final checkpoint and the ``run_end`` record."""
        if self.checkpointer and self._last_saved_iteration != iteration:
            self._save(iteration, rng, history)
        self._log("run_end", iteration=iteration,
                  seconds=time.perf_counter() - self._run_started,
                  recoveries=self.recoveries, litho=self._litho_delta())

    # ------------------------------------------------------------------
    # guarded weight updates
    # ------------------------------------------------------------------
    def apply_update(self, losses: Dict[str, float],
                     backward: Callable[[], None],
                     optimizer: Adam,
                     tag: str = "update") -> str:
        """Guard a loss, back-propagate, clip and step.

        Returns the guard action taken: ``"ok"`` when the update was
        applied, ``"skip"`` / ``"rollback"`` when the divergence policy
        intervened (the optimizer step is not taken in either case).
        """
        bad = nonfinite_entries(losses)
        if bad:
            self.last_action = self._diverged(bad)
            return self.last_action
        backward()
        # Clip and measure exactly the parameters this step updates.
        # (The generator step runs D frozen, so no gradient reaches D's
        # parameters on the way to G.)
        grad_norm = clip_grad_norm_(optimizer.parameters,
                                    self.config.max_grad_norm)
        self._grad_norms[tag] = grad_norm
        if not math.isfinite(grad_norm):
            self.last_action = self._diverged({f"{tag}_grad_norm": grad_norm})
            return self.last_action
        optimizer.step()
        self.last_action = "ok"
        return "ok"

    def _diverged(self, values: Dict[str, float]) -> str:
        self.recoveries += 1
        policy = self.config.policy
        if policy == "raise" or self.recoveries > self.config.max_recoveries:
            self._log("anomaly", kind="divergence",
                      iteration=self._iteration or 0, action="raise",
                      values=values, recoveries=self.recoveries)
            raise DivergenceError(self.phase, self._iteration, values,
                                  self.recoveries - 1)
        if policy == "rollback":
            restore_state(self._snapshot, self.modules, self.optimizers)
            for optimizer in self.optimizers.values():
                optimizer.lr *= self.config.lr_backoff
            action = "rollback"
        else:
            action = "skip"
        self._log("anomaly", kind="divergence",
                  iteration=self._iteration or 0, action=action,
                  values=values, recoveries=self.recoveries,
                  learning_rates={name: opt.lr for name, opt
                                  in self.optimizers.items()})
        return action

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _save(self, next_iteration: int,
              rng: Optional[np.random.Generator],
              history: Dict[str, List[float]]) -> None:
        state = capture_state(next_iteration, self.modules, self.optimizers,
                              rng=rng, history=history, phase=self.phase)
        path = self.checkpointer.save(state)
        self._last_saved_iteration = next_iteration
        # Rollback targets the last durable state, so refresh the
        # in-memory snapshot to match what just hit disk.
        self._snapshot = state
        self._log("checkpoint", iteration=next_iteration, path=path)

    def _log(self, event: str, **fields) -> None:
        """One record into the run's stream, stamped with this phase."""
        if self.logger is not None:
            self.logger.event(event, phase=self.phase, **fields)

    def _litho_delta(self) -> Dict[str, float]:
        """Litho work since the previous record, so the iteration and
        ``run_end`` deltas of a run sum to its whole litho work."""
        delta = LithoEngine.stats.delta(self._litho_prev)
        self._litho_prev = LithoEngine.stats.snapshot()
        return delta
