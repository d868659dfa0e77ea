"""GAN-OPC adversarial training (Section 3.3, Algorithm 1).

The min-max objective (Eq. 10) combines three terms:

* generator adversarial term  ``-log D(Z_t, G(Z_t))``       (Eq. 7),
* discriminator term ``log D(Z_t, M*)`` vs ``log D(Z_t, G)`` (Eq. 8),
* generator regression term ``alpha * ||M* - G(Z_t)||^2``    (Eq. 9),

trained alternately: each iteration samples a mini-batch of
(target, reference-mask) pairs, updates the generator on Eq. 7 + Eq. 9,
then updates the discriminator on Eq. 8.  As in the paper, the min-max
problem is converted into two minimizations so both networks take plain
gradient-descent steps.

The ``l2_to_reference`` series of :class:`TrainingHistory` is the
quantity plotted in Figure 7 (squared L2 between generator outputs and
ground-truth masks versus training step).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.obs import trace

from .. import nn
from ..layoutgen.dataset import SyntheticDataset
from ..litho.conditions import ConditionSet
from ..litho.config import LithoConfig
from ..litho.engine import LithoEngine
from ..litho.kernels import build_kernels
from ..runtime import RunConfig, TrainingHarness
from .config import GanOpcConfig
from .discriminator import PairDiscriminator
from .generator import MaskGenerator

_EPS = 1e-7


@dataclass
class TrainingHistory:
    """Per-iteration training records (Figure 7 raw data)."""

    generator_loss: List[float] = field(default_factory=list)
    discriminator_loss: List[float] = field(default_factory=list)
    l2_to_reference: List[float] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.generator_loss)


class GanOpcTrainer:
    """Alternating generator/discriminator training (Algorithm 1).

    Parameters
    ----------
    generator / discriminator:
        Networks to train (modified in place).  Any discriminator with
        the ``D(target, mask)`` interface works — the ablation passes a
        :class:`~repro.core.discriminator.MaskOnlyDiscriminator`.
    config:
        Hyper-parameters; ``config.alpha`` weighs the regression term
        and ``config.litho_weight`` the optional corner-robust litho
        guidance term.
    litho_config / engine / conditions:
        Only consulted when ``config.litho_weight > 0``: the generator
        objective gains ``litho_weight * E_pw(G(Z_t), Z_t)`` with
        ``E_pw`` the ``config.pw_objective`` aggregation of the relaxed
        litho error over the condition stack.  ``engine`` takes
        precedence; otherwise one is built from ``litho_config`` (or
        ``LithoConfig.small(config.grid)``) and ``conditions`` (default
        nominal).  The analytic Eq. 14 gradient is injected as an
        additional upstream gradient of the generator output, exactly
        like Algorithm 2 pre-training.
    """

    def __init__(self, generator: MaskGenerator,
                 discriminator: PairDiscriminator,
                 config: Optional[GanOpcConfig] = None,
                 litho_config: Optional[LithoConfig] = None,
                 engine: Optional[LithoEngine] = None,
                 conditions: Optional[ConditionSet] = None):
        self.generator = generator
        self.discriminator = discriminator
        self.config = config or GanOpcConfig()
        self._litho_engine: Optional[LithoEngine] = None
        if self.config.litho_weight > 0:
            if engine is None:
                litho_config = litho_config or LithoConfig.small(
                    self.config.grid)
                engine = LithoEngine.for_kernels(build_kernels(litho_config))
            if conditions is not None and engine.conditions != conditions:
                engine = LithoEngine.for_conditions(engine.kernels,
                                                    conditions,
                                                    engine.precision)
            self._litho_engine = engine
        self.optimizer_g = nn.Adam(generator.parameters(),
                                   lr=self.config.learning_rate_g)
        self.optimizer_d = nn.Adam(discriminator.parameters(),
                                   lr=self.config.learning_rate_d)

    # ------------------------------------------------------------------
    def generator_step(self, targets: np.ndarray,
                       reference_masks: np.ndarray,
                       harness: Optional[TrainingHarness] = None
                       ) -> Tuple[float, float, np.ndarray]:
        """Update G on ``-log D(Z_t, G(Z_t)) + alpha ||M* - G||^2``.

        Returns ``(loss, l2_sum_per_image, fake_masks)`` — the fakes are
        reused (detached) by the discriminator step, saving a forward
        pass like line 5 of Algorithm 1.  With a harness the update is
        guarded: a non-finite loss or gradient norm triggers the
        configured divergence policy before any weight is touched.

        D is frozen for the step: backward through it computes only the
        input gradient G needs, no gradients for D's own weights.
        """
        with trace.span("gan.generator_step", batch=len(targets)), \
                nn.frozen(self.discriminator):
            # Feed both networks in the generator's compute dtype; f64
            # targets/labels would otherwise promote every GEMM and the
            # loss arithmetic back to double under --precision f32.
            dtype = nn.compute_dtype(self.generator)
            target_t = nn.Tensor(np.asarray(targets, dtype=dtype))
            reference_t = nn.Tensor(np.asarray(reference_masks, dtype=dtype))

            self.optimizer_g.zero_grad()
            self.discriminator.zero_grad()
            fake = self.generator(target_t)
            d_fake = self.discriminator(target_t, fake)
            adversarial = nn.bce_loss(
                d_fake, nn.ones(d_fake.shape, dtype=d_fake.data.dtype))
            regression = nn.mse_loss(fake, reference_t, reduction="mean")
            loss = adversarial + self.config.alpha * regression
            loss_value = float(loss.data)

            # Corner-robust litho guidance: the analytic process-window
            # gradient (Eq. 14 aggregated over the condition stack) is
            # injected as an upstream gradient of the generator output,
            # the same mechanism as Algorithm 2 pre-training.  Backward
            # releases the graph it runs through, so the injection is
            # the surrogate term sum(fake * upstream), whose gradient
            # with respect to fake is exactly upstream, and one backward
            # pass carries both objectives.
            if self._litho_engine is not None:
                weight = self.config.litho_weight
                cfg = self._litho_engine.config
                with trace.span("gan.litho_gradient", batch=len(targets)):
                    litho_errors, litho_grads = \
                        self._litho_engine.condition_error_and_gradient_wrt_mask(
                            fake.data[:, 0], targets[:, 0],
                            objective=self.config.pw_objective,
                            threshold=cfg.threshold,
                            resist_steepness=cfg.resist_steepness)
                loss_value += weight * float(np.mean(litho_errors))
                upstream = np.asarray(
                    (weight / len(targets)) * litho_grads[:, None],
                    dtype=dtype)
                loss = loss + (fake * nn.Tensor(upstream)).sum()

            if harness is None:
                loss.backward()
                self.optimizer_g.step()
            else:
                harness.apply_update({"generator_loss": loss_value},
                                     loss.backward, self.optimizer_g,
                                     tag="generator")

        diff = fake.data - reference_masks
        l2_sum = float(np.sum(diff * diff) / len(targets))
        return loss_value, l2_sum, fake.data

    def discriminator_step(self, targets: np.ndarray,
                           reference_masks: np.ndarray,
                           fake_masks: np.ndarray,
                           harness: Optional[TrainingHarness] = None
                           ) -> float:
        """Update D on Eq. 8 (paper objective) or standard BCE."""
        with trace.span("gan.discriminator_step", batch=len(targets)):
            dtype = nn.compute_dtype(self.discriminator)
            target_t = nn.Tensor(np.asarray(targets, dtype=dtype))

            self.optimizer_d.zero_grad()
            self.generator.zero_grad()
            d_fake = self.discriminator(
                target_t, nn.Tensor(np.asarray(fake_masks, dtype=dtype)))
            d_real = self.discriminator(
                target_t, nn.Tensor(np.asarray(reference_masks, dtype=dtype)))

            if self.config.discriminator_loss == "paper":
                # Literal Algorithm 1 line 8, clamped for finiteness:
                # l_d = log D(fake) - log D(real).
                loss = (d_fake.clip(_EPS, 1.0).log().mean()
                        - d_real.clip(_EPS, 1.0).log().mean())
            else:
                real_label = 1.0 - self.config.label_smoothing
                loss = (nn.bce_loss(
                            d_fake,
                            nn.zeros(d_fake.shape, dtype=d_fake.data.dtype))
                        + nn.bce_loss(
                            d_real,
                            nn.full(d_real.shape, real_label,
                                    dtype=d_real.data.dtype)))
            loss_value = float(loss.data)
            if harness is None:
                loss.backward()
                self.optimizer_d.step()
            else:
                harness.apply_update({"discriminator_loss": loss_value},
                                     loss.backward, self.optimizer_d,
                                     tag="discriminator")
        return loss_value

    def train_iteration(self, targets: np.ndarray,
                        reference_masks: np.ndarray,
                        harness: Optional[TrainingHarness] = None
                        ) -> Tuple[float, float, float]:
        """One Algorithm 1 iteration; returns ``(l_g, l_d, l2)``.

        When the generator update diverged (harness action is not
        ``"ok"``), the discriminator step is skipped for the iteration:
        after a rollback the fakes no longer correspond to the restored
        weights, and after a NaN they are not trustworthy inputs.
        """
        loss_g, l2_sum, fake = self.generator_step(targets, reference_masks,
                                                   harness)
        if harness is not None and harness.last_action != "ok":
            return loss_g, float("nan"), l2_sum
        loss_d = self.discriminator_step(targets, reference_masks, fake,
                                         harness)
        return loss_g, loss_d, l2_sum

    # ------------------------------------------------------------------
    def train(self, dataset: SyntheticDataset, iterations: int,
              rng: Optional[np.random.Generator] = None,
              verbose: bool = False,
              runtime: Optional[RunConfig] = None) -> TrainingHistory:
        """Run adversarial training, sampling mini-batches of
        (target, reference-mask) pairs from the dataset.

        ``runtime`` enables the robustness substrate: checkpoint/resume
        (bit-exact, including the sampling RNG and both Adam states),
        divergence guards and JSONL telemetry.  Without it the loop
        behaves exactly as before.
        """
        rng = rng or np.random.default_rng(self.config.seed)
        history = TrainingHistory()
        series = {"generator_loss": history.generator_loss,
                  "discriminator_loss": history.discriminator_loss,
                  "l2_to_reference": history.l2_to_reference}
        harness: Optional[TrainingHarness] = None
        start_iteration = 0
        if runtime is not None:
            harness = TrainingHarness(
                "gan",
                modules={"generator": self.generator,
                         "discriminator": self.discriminator},
                optimizers={"generator": self.optimizer_g,
                            "discriminator": self.optimizer_d},
                config=runtime)
            start_iteration = harness.begin(rng, series, iterations)
        start = time.perf_counter()
        self.generator.train()
        self.discriminator.train()
        for iteration in range(start_iteration, iterations):
            if harness is not None:
                harness.begin_iteration(iteration)
            indices = rng.choice(len(dataset), size=self.config.batch_size,
                                 replace=len(dataset) < self.config.batch_size)
            targets, masks = dataset.pairs_batch(indices)
            loss_g, loss_d, l2_sum = self.train_iteration(targets, masks,
                                                          harness)
            history.generator_loss.append(loss_g)
            history.discriminator_loss.append(loss_d)
            history.l2_to_reference.append(l2_sum)
            if harness is not None:
                harness.end_iteration(
                    iteration, rng, series,
                    {"generator_loss": loss_g,
                     "discriminator_loss": loss_d,
                     "l2_to_reference": l2_sum})
            if verbose and (iteration + 1) % 10 == 0:
                print(f"[gan {iteration + 1}/{iterations}] "
                      f"l_g {loss_g:.3f} l_d {loss_d:.3f} l2 {l2_sum:.1f}")
        history.runtime_seconds = time.perf_counter() - start
        if harness is not None:
            harness.finish(max(iterations, start_iteration), rng, series)
        return history
