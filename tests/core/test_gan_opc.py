"""Unit tests for Algorithm 1 (adversarial GAN-OPC training)."""

import copy

import numpy as np
import pytest

from repro import nn
from repro.core import (GanOpcConfig, GanOpcTrainer, MaskGenerator,
                        MaskOnlyDiscriminator, PairDiscriminator)
from repro.ilt import ILTConfig
from repro.layoutgen import SyntheticDataset


@pytest.fixture(scope="module")
def dataset(litho32, kernels32):
    return SyntheticDataset(litho32, size=4, seed=5, kernels=kernels32,
                            ilt_config=ILTConfig(max_iterations=25))


def _trainer(config=None, disc_cls=PairDiscriminator):
    config = config or GanOpcConfig(grid=32, generator_channels=(4, 8),
                                    discriminator_channels=(4, 8),
                                    batch_size=2)
    gen = MaskGenerator(config.generator_channels,
                        rng=np.random.default_rng(1))
    disc = disc_cls(config.grid, config.discriminator_channels,
                    rng=np.random.default_rng(2))
    return GanOpcTrainer(gen, disc, config)


class TestGanOpcConfig:
    @pytest.mark.parametrize("kwargs", [
        {"grid": 30},
        {"alpha": -1.0},
        {"batch_size": 0},
        {"discriminator_loss": "wasserstein"},
        {"label_smoothing": 0.5},
        {"learning_rate_g": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GanOpcConfig(**kwargs)

    def test_presets(self):
        assert GanOpcConfig.paper().grid == 256
        assert GanOpcConfig.small(64).grid == 64


class TestTrainingSteps:
    def test_generator_step_returns_finite_losses(self, dataset):
        trainer = _trainer()
        targets, masks = dataset.pairs_batch([0, 1])
        loss, l2, fake = trainer.generator_step(targets, masks)
        assert np.isfinite(loss)
        assert l2 >= 0
        assert fake.shape == targets.shape

    def test_generator_step_updates_generator_only(self, dataset):
        trainer = _trainer()
        g_before = [p.data.copy() for p in trainer.generator.parameters()]
        d_before = [p.data.copy() for p in trainer.discriminator.parameters()]
        targets, masks = dataset.pairs_batch([0, 1])
        trainer.generator_step(targets, masks)
        g_changed = any(not np.array_equal(a, p.data) for a, p in
                        zip(g_before, trainer.generator.parameters()))
        d_changed = any(not np.array_equal(a, p.data) for a, p in
                        zip(d_before, trainer.discriminator.parameters()))
        assert g_changed and not d_changed

    def test_generator_step_leaves_discriminator_without_gradients(
            self, dataset):
        trainer = _trainer()
        targets, masks = dataset.pairs_batch([0, 1])
        trainer.generator_step(targets, masks)
        assert all(p.grad is None
                   for p in trainer.discriminator.parameters())
        assert all(p.requires_grad
                   for p in trainer.discriminator.parameters())

    def test_generator_gradients_match_unfrozen_discriminator(self,
                                                              dataset):
        """Freezing D changes no bit of G's gradients."""
        trainer = _trainer()
        reference = copy.deepcopy(trainer)
        targets, masks = dataset.pairs_batch([0, 1])
        captured = []
        step = trainer.optimizer_g.step

        def capture():
            captured.extend(p.grad.copy()
                            for p in trainer.generator.parameters())
            step()

        trainer.optimizer_g.step = capture
        trainer.generator_step(targets, masks)

        # The same losses back-propagated with D's parameters
        # requiring grad.
        generator, discriminator = (reference.generator,
                                    reference.discriminator)
        target_t = nn.Tensor(targets)
        fake = generator(target_t)
        d_fake = discriminator(target_t, fake)
        loss = (nn.bce_loss(d_fake, nn.ones(d_fake.shape))
                + reference.config.alpha
                * nn.mse_loss(fake, nn.Tensor(masks), reduction="mean"))
        loss.backward()
        assert all(p.grad is not None for p in discriminator.parameters())
        expected = [p.grad for p in generator.parameters()]
        assert len(captured) == len(expected)
        for got, want in zip(captured, expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_discriminator_step_updates_discriminator_only(self, dataset):
        trainer = _trainer()
        targets, masks = dataset.pairs_batch([0, 1])
        _, _, fake = trainer.generator_step(targets, masks)
        g_before = [p.data.copy() for p in trainer.generator.parameters()]
        d_before = [p.data.copy() for p in trainer.discriminator.parameters()]
        trainer.discriminator_step(targets, masks, fake)
        g_changed = any(not np.array_equal(a, p.data) for a, p in
                        zip(g_before, trainer.generator.parameters()))
        d_changed = any(not np.array_equal(a, p.data) for a, p in
                        zip(d_before, trainer.discriminator.parameters()))
        assert d_changed and not g_changed

    def test_paper_loss_mode_runs(self, dataset):
        config = GanOpcConfig(grid=32, generator_channels=(4, 8),
                              discriminator_channels=(4, 8), batch_size=2,
                              discriminator_loss="paper")
        trainer = _trainer(config)
        targets, masks = dataset.pairs_batch([0, 1])
        loss_g, loss_d, l2 = trainer.train_iteration(targets, masks)
        assert np.isfinite(loss_d)

    def test_mask_only_ablation_runs(self, dataset):
        trainer = _trainer(disc_cls=MaskOnlyDiscriminator)
        targets, masks = dataset.pairs_batch([0, 1])
        loss_g, loss_d, l2 = trainer.train_iteration(targets, masks)
        assert np.isfinite(loss_g) and np.isfinite(loss_d)


class TestTrainLoop:
    def test_history_lengths(self, dataset):
        trainer = _trainer()
        history = trainer.train(dataset, iterations=6,
                                rng=np.random.default_rng(0))
        assert history.iterations == 6
        assert len(history.discriminator_loss) == 6
        assert len(history.l2_to_reference) == 6
        assert history.runtime_seconds > 0

    def test_regression_term_drives_l2_down(self, dataset):
        """With a dominant alpha, training must reduce the generator's
        L2 to the reference masks (the Figure 7 quantity)."""
        config = GanOpcConfig(grid=32, generator_channels=(4, 8),
                              discriminator_channels=(4, 8), batch_size=4,
                              alpha=500.0)
        trainer = _trainer(config)
        history = trainer.train(dataset, iterations=40,
                                rng=np.random.default_rng(0))
        early = np.mean(history.l2_to_reference[:5])
        late = np.mean(history.l2_to_reference[-5:])
        assert late < early

    def test_reproducible_with_seeded_rng(self, dataset):
        h1 = _trainer().train(dataset, iterations=3,
                              rng=np.random.default_rng(7))
        h2 = _trainer().train(dataset, iterations=3,
                              rng=np.random.default_rng(7))
        np.testing.assert_allclose(h1.generator_loss, h2.generator_loss)
