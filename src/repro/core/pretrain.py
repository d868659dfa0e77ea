"""ILT-guided generator pre-training (Section 3.4, Algorithm 2).

Training the full GAN from random weights converges poorly; the paper's
fix exploits that ILT and back-propagation are both gradient descent:
wire the *lithography* error directly into the generator.  Each
pre-training step

1. forwards a mini-batch of targets through the generator,
2. simulates each generated mask to a wafer image (Eqs. 2-3 relaxed),
3. evaluates ``E = ||Z - Z_t||^2`` (Eq. 11),
4. back-propagates ``dE/dM`` (Eq. 14) through the generator via the
   chain rule ``dE/dM * dM/dW_g`` (line 8 of Algorithm 2),
5. updates ``W_g`` with the mini-batch gradient (Eq. 15).

Step 4 is exactly ``mask_tensor.backward(dE_dM)`` in the autograd
substrate — the analytic litho gradient is injected as the upstream
gradient of the network output.

:class:`GroundTruthPretrainer` implements the alternative the paper
argues against ("directly back-propagate the mask error to neuron
weights"), kept for the comparison benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.obs import trace

from .. import nn
from ..litho.conditions import ConditionSet
from ..litho.config import LithoConfig
from ..litho.engine import LithoEngine
from ..litho.kernels import KernelSet, build_kernels
from ..layoutgen.dataset import SyntheticDataset
from ..runtime import RunConfig, TrainingHarness
from .config import GanOpcConfig
from .generator import MaskGenerator


@dataclass
class PretrainHistory:
    """Per-iteration records of a pre-training run."""

    litho_error: List[float] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.litho_error)


class ILTGuidedPretrainer:
    """Algorithm 2: initialize the generator with lithography guidance.

    Parameters
    ----------
    generator:
        The generator to pre-train (modified in place).
    litho_config:
        Lithography model whose error guides the updates.
    config:
        Training hyper-parameters (batch size, learning rate).
    kernels:
        Optional prebuilt kernel set.
    conditions:
        Optional process-window corner stack: the guiding litho error
        becomes the ``config.pw_objective`` aggregation over the
        corners (weighted average or per-sample worst), making the
        pre-trained generator corner-robust.  ``None`` keeps the
        paper's nominal-only Algorithm 2.
    """

    def __init__(self, generator: MaskGenerator,
                 litho_config: Optional[LithoConfig] = None,
                 config: Optional[GanOpcConfig] = None,
                 kernels: Optional[KernelSet] = None,
                 engine: Optional[LithoEngine] = None,
                 conditions: Optional[ConditionSet] = None):
        self.generator = generator
        self.litho_config = litho_config or LithoConfig.paper()
        self.config = config or GanOpcConfig()
        if engine is None:
            engine = LithoEngine.for_kernels(
                kernels or build_kernels(self.litho_config))
        self.engine = engine
        self.kernels = engine.kernels
        self.conditions = conditions
        self._condition_engine = (
            LithoEngine.for_conditions(self.kernels, conditions,
                                       engine.precision)
            if conditions is not None else None)
        self.optimizer = nn.Adam(generator.parameters(),
                                 lr=self.config.pretrain_learning_rate)

    def batch_litho_gradient(self, masks: np.ndarray, targets: np.ndarray):
        """Litho errors and ``dE/dM`` for an NCHW batch of masks.

        Returns ``(errors, gradients)`` with gradients shaped like the
        mask batch.  The generator output is already sigmoid-bounded, so
        it plays the role of the relaxed mask ``M_b`` directly.  The
        whole mini-batch goes through the engine's batched forward and
        adjoint FFT pipeline in one call (no per-sample loop); with a
        condition stack, every corner shares that same pipeline.
        """
        cfg = self.litho_config
        if self._condition_engine is not None:
            errors, gradients = \
                self._condition_engine.condition_error_and_gradient_wrt_mask(
                    masks[:, 0], targets[:, 0],
                    objective=self.config.pw_objective,
                    threshold=cfg.threshold,
                    resist_steepness=cfg.resist_steepness)
            return errors, gradients[:, None]
        errors, gradients = self.engine.error_and_gradient_wrt_mask(
            masks[:, 0], targets[:, 0], threshold=cfg.threshold,
            resist_steepness=cfg.resist_steepness)
        return errors, gradients[:, None]

    def step(self, targets: np.ndarray,
             harness: Optional[TrainingHarness] = None) -> float:
        """One Algorithm 2 iteration on a target batch; returns the
        mini-batch mean lithography error.

        With a harness, the weight update is guarded: a non-finite
        litho error or gradient norm triggers the configured divergence
        policy instead of poisoning the generator.
        """
        with trace.span("pretrain.step", batch=len(targets)):
            self.optimizer.zero_grad()
            # Feed the network in its own dtype: an f32 generator must
            # not have its GEMMs promoted to f64 by a double batch.
            dtype = nn.compute_dtype(self.generator)
            batch = nn.Tensor(np.asarray(targets, dtype=dtype))
            with trace.span("pretrain.generator_forward"):
                masks = self.generator(batch)
            with trace.span("pretrain.litho_gradient"):
                errors, gradients = self.batch_litho_gradient(masks.data,
                                                              targets)
            error = float(errors.mean())

            # Line 8: accumulate dE/dM * dM/dW_g; mini-batch averaging
            # happens here (Eq. 15's lambda/m).  The litho gradient is
            # cast to the network dtype so the backward pass stays in
            # the generator's precision even with a mixed-precision
            # engine (no-op when dtypes already match).
            def backward():
                masks.backward(
                    np.asarray(gradients, dtype=dtype) / len(targets))

            with trace.span("pretrain.update"):
                if harness is None:
                    backward()
                    self.optimizer.step()
                else:
                    harness.apply_update({"litho_error": error}, backward,
                                         self.optimizer, tag="generator")
        return error

    def train(self, dataset: SyntheticDataset, iterations: int,
              rng: Optional[np.random.Generator] = None,
              verbose: bool = False,
              runtime: Optional[RunConfig] = None) -> PretrainHistory:
        """Run pre-training for a number of iterations.

        Targets are sampled with replacement from the dataset (line 2 of
        Algorithm 2); reference masks are *not* needed — that is the
        point of lithography guidance.

        ``runtime`` enables the robustness substrate: checkpoint/resume
        (bit-exact, including the sampling RNG), divergence guards and
        JSONL telemetry.  Without it the loop behaves exactly as
        before.
        """
        rng = rng or np.random.default_rng(self.config.seed)
        history = PretrainHistory()
        series = {"litho_error": history.litho_error}
        harness: Optional[TrainingHarness] = None
        start_iteration = 0
        if runtime is not None:
            harness = TrainingHarness(
                "pretrain", modules={"generator": self.generator},
                optimizers={"generator": self.optimizer},
                config=runtime)
            start_iteration = harness.begin(rng, series, iterations)
        start = time.perf_counter()
        self.generator.train()
        for iteration in range(start_iteration, iterations):
            if harness is not None:
                harness.begin_iteration(iteration)
            indices = rng.choice(len(dataset), size=self.config.batch_size,
                                 replace=len(dataset) < self.config.batch_size)
            targets = dataset.targets_batch(indices)
            error = self.step(targets, harness=harness)
            history.litho_error.append(error)
            if harness is not None:
                harness.end_iteration(iteration, rng, series,
                                      {"litho_error": error})
            if verbose and (iteration + 1) % 10 == 0:
                print(f"[pretrain {iteration + 1}/{iterations}] "
                      f"litho error {error:.1f}")
        history.runtime_seconds = time.perf_counter() - start
        if harness is not None:
            harness.finish(max(iterations, start_iteration), rng, series)
        return history


class GroundTruthPretrainer:
    """Pre-training towards reference masks (the paper's strawman).

    Minimizes ``||M* - G(Z_t)||^2`` directly.  Compared against
    lithography guidance in the ablation benchmark: it requires ground
    truth for every sample and offers no step-by-step litho feedback, so
    the paper reports it is more prone to poor local minima.
    """

    def __init__(self, generator: MaskGenerator,
                 config: Optional[GanOpcConfig] = None):
        self.generator = generator
        self.config = config or GanOpcConfig()
        self.optimizer = nn.Adam(generator.parameters(),
                                 lr=self.config.pretrain_learning_rate)

    def step(self, targets: np.ndarray, reference_masks: np.ndarray) -> float:
        self.optimizer.zero_grad()
        dtype = nn.compute_dtype(self.generator)
        masks = self.generator(nn.Tensor(np.asarray(targets, dtype=dtype)))
        loss = nn.mse_loss(masks,
                           nn.Tensor(np.asarray(reference_masks, dtype=dtype)),
                           reduction="mean")
        loss.backward()
        self.optimizer.step()
        return float(loss.data)

    def train(self, dataset: SyntheticDataset, iterations: int,
              rng: Optional[np.random.Generator] = None) -> PretrainHistory:
        rng = rng or np.random.default_rng(self.config.seed)
        history = PretrainHistory()
        start = time.perf_counter()
        self.generator.train()
        for _ in range(iterations):
            indices = rng.choice(len(dataset), size=self.config.batch_size,
                                 replace=len(dataset) < self.config.batch_size)
            targets, masks = dataset.pairs_batch(indices)
            history.litho_error.append(self.step(targets, masks))
        history.runtime_seconds = time.perf_counter() - start
        return history
