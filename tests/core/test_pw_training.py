"""Corner-robust training: condition stacks through Algorithm 2
pre-training and litho-guided GAN updates."""

import numpy as np
import pytest

from repro import nn
from repro.core import (GanOpcConfig, GanOpcTrainer, ILTGuidedPretrainer,
                        MaskGenerator, PairDiscriminator)
from repro.layoutgen import SyntheticDataset
from repro.litho import ConditionSet, LithoEngine


GRID = 32


@pytest.fixture(scope="module")
def dataset(litho32, kernels32):
    return SyntheticDataset(litho32, size=4, seed=7, kernels=kernels32)


@pytest.fixture()
def config():
    return GanOpcConfig.small(GRID)


def _generator(config, seed=0):
    return MaskGenerator(config.generator_channels,
                         rng=np.random.default_rng(seed))


class TestConditionPretraining:
    def test_condition_gradient_shape_and_error(self, litho32, kernels32,
                                                config, dataset):
        conditions = ConditionSet.dose_corners(0.04)
        pretrainer = ILTGuidedPretrainer(_generator(config), litho32, config,
                                         kernels=kernels32,
                                         conditions=conditions)
        targets = dataset.targets_batch([0, 1])
        masks = np.clip(targets + 0.1, 0.0, 1.0)
        errors, gradients = pretrainer.batch_litho_gradient(masks, targets)
        assert errors.shape == (2,)
        assert gradients.shape == (2, 1, GRID, GRID)
        assert np.all(np.isfinite(gradients))

    def test_nominal_conditions_match_plain_pretrainer(self, litho32,
                                                       kernels32, config,
                                                       dataset):
        plain = ILTGuidedPretrainer(_generator(config), litho32, config,
                                    kernels=kernels32)
        nominal = ILTGuidedPretrainer(_generator(config), litho32, config,
                                      kernels=kernels32,
                                      conditions=ConditionSet.nominal())
        targets = dataset.targets_batch([0, 1])
        masks = np.clip(targets + 0.1, 0.0, 1.0)
        e0, g0 = plain.batch_litho_gradient(masks, targets)
        e1, g1 = nominal.batch_litho_gradient(masks, targets)
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(g0, g1)

    def test_training_converges_on_condition_stack(self, litho32, kernels32,
                                                   config, dataset):
        pretrainer = ILTGuidedPretrainer(
            _generator(config), litho32, config, kernels=kernels32,
            conditions=ConditionSet.grid(defocuses=(0.0, 25.0),
                                         doses=(0.98, 1.02)))
        history = pretrainer.train(dataset, 6,
                                   rng=np.random.default_rng(3))
        assert history.iterations == 6
        assert all(np.isfinite(history.litho_error))


class TestLithoGuidedGan:
    def test_litho_weight_validated(self):
        with pytest.raises(ValueError):
            GanOpcConfig(grid=GRID, litho_weight=-1.0)
        with pytest.raises(ValueError):
            GanOpcConfig(grid=GRID, pw_objective="nominal")

    def test_guidance_disabled_by_default(self, config):
        trainer = GanOpcTrainer(
            _generator(config),
            PairDiscriminator(GRID, config.discriminator_channels,
                              rng=np.random.default_rng(1)),
            config)
        assert trainer._litho_engine is None

    def test_guided_step_adds_litho_term(self, litho32, kernels32, config,
                                         dataset):
        from dataclasses import replace
        config = replace(config, litho_weight=0.5, batch_size=2)
        engine = LithoEngine.for_kernels(kernels32)
        conditions = ConditionSet.dose_corners(0.04)

        def build(litho_weight):
            cfg = replace(config, litho_weight=litho_weight)
            return GanOpcTrainer(
                _generator(cfg),
                PairDiscriminator(GRID, cfg.discriminator_channels,
                                  rng=np.random.default_rng(1)),
                cfg, litho_config=litho32, engine=engine,
                conditions=conditions)

        targets, masks = dataset.pairs_batch([0, 1])
        guided = build(0.5)
        assert guided._litho_engine.conditions == conditions
        loss_guided, _, _ = guided.generator_step(targets, masks)
        plain = build(0.0)
        loss_plain, _, _ = plain.generator_step(targets, masks)
        # Identical seeds: the guided loss is the plain loss plus a
        # positive weighted litho error.
        assert loss_guided > loss_plain

    def test_guided_training_runs(self, litho32, kernels32, config,
                                  dataset):
        from dataclasses import replace
        config = replace(config, litho_weight=0.1, batch_size=2,
                         pw_objective="worst")
        trainer = GanOpcTrainer(
            _generator(config),
            PairDiscriminator(GRID, config.discriminator_channels,
                              rng=np.random.default_rng(1)),
            config, litho_config=litho32,
            engine=LithoEngine.for_kernels(kernels32),
            conditions=ConditionSet.dose_corners())
        history = trainer.train(dataset, 3, rng=np.random.default_rng(5))
        assert history.iterations == 3
        assert all(np.isfinite(history.generator_loss))

    def test_guided_gradients_are_plain_plus_litho_vjp(self, litho32,
                                                       kernels32, config,
                                                       dataset):
        """The guided G step's generator gradients are the plain loss's
        gradients plus J^T upstream of the litho term, each taken here
        from its own graph: both objectives reach the weights through
        the step's one backward pass."""
        from dataclasses import replace
        config = replace(config, litho_weight=0.5, batch_size=2)
        engine = LithoEngine.for_conditions(
            kernels32, ConditionSet.dose_corners(0.04))
        generator = _generator(config)
        discriminator = PairDiscriminator(GRID, config.discriminator_channels,
                                          rng=np.random.default_rng(1))
        targets, masks = dataset.pairs_batch([0, 1])

        def step_gradients(litho_weight):
            trainer = GanOpcTrainer(
                generator, discriminator,
                replace(config, litho_weight=litho_weight),
                litho_config=litho32, engine=engine)
            trainer.optimizer_g.step = lambda: None  # keep the weights
            trainer.generator_step(targets, masks)
            return [p.grad.copy() for p in generator.parameters()]

        guided = step_gradients(0.5)
        plain = step_gradients(0.0)

        generator.zero_grad()
        fake = generator(nn.Tensor(targets))
        _, litho_grads = engine.condition_error_and_gradient_wrt_mask(
            fake.data[:, 0], targets[:, 0], objective=config.pw_objective,
            threshold=litho32.threshold,
            resist_steepness=litho32.resist_steepness)
        fake.backward(0.5 / len(targets) * litho_grads[:, None])
        litho = [p.grad for p in generator.parameters()]

        # Over all weights at once: a conv bias ahead of a batch-norm
        # has a zero gradient up to rounding.
        guided, plain, litho = (np.concatenate([g.ravel() for g in grads])
                                for grads in (guided, plain, litho))
        expected = plain + litho
        assert (np.linalg.norm(guided - expected)
                <= 1e-12 * np.linalg.norm(expected))
        assert np.linalg.norm(guided - plain) > 1e-3 * np.linalg.norm(plain)
