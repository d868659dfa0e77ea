"""Unit tests for ILT-guided pre-training (Algorithm 2)."""

import numpy as np
import pytest

from repro import nn
from repro.core import (GanOpcConfig, GroundTruthPretrainer,
                        ILTGuidedPretrainer, MaskGenerator)
from repro.ilt import ILTConfig
from repro.layoutgen import SyntheticDataset
from repro.litho import LithoEngine


@pytest.fixture(scope="module")
def dataset(litho32, kernels32):
    return SyntheticDataset(litho32, size=4, seed=21, kernels=kernels32,
                            ilt_config=ILTConfig(max_iterations=20))


def _config():
    return GanOpcConfig(grid=32, generator_channels=(4, 8),
                        discriminator_channels=(4, 8), batch_size=2)


def _pretrainer(litho32, kernels32, seed=1):
    gen = MaskGenerator((4, 8), rng=np.random.default_rng(seed))
    return ILTGuidedPretrainer(gen, litho32, _config(), kernels=kernels32)


class TestBatchLithoGradient:
    def test_shapes_and_errors(self, litho32, kernels32, dataset):
        pre = _pretrainer(litho32, kernels32)
        targets = dataset.targets_batch([0, 1])
        masks = np.clip(targets + 0.1, 0, 1)
        errors, grads = pre.batch_litho_gradient(masks, targets)
        assert errors.shape == (2,)
        assert grads.shape == masks.shape
        assert np.all(errors >= 0)

    def test_matches_single_instance_gradient(self, litho32, kernels32,
                                              dataset):
        pre = _pretrainer(litho32, kernels32)
        targets = dataset.targets_batch([0])
        masks = np.clip(targets * 0.8 + 0.1, 0, 1)
        errors, grads = pre.batch_litho_gradient(masks, targets)
        expected_e, expected_g = LithoEngine.for_kernels(
            kernels32).error_and_gradient_wrt_mask(
            masks[0, 0], targets[0, 0], threshold=litho32.threshold,
            resist_steepness=litho32.resist_steepness)
        np.testing.assert_allclose(errors[0], expected_e)
        np.testing.assert_allclose(grads[0, 0], expected_g)


class TestAlgorithm2:
    def test_step_updates_weights(self, litho32, kernels32, dataset):
        pre = _pretrainer(litho32, kernels32)
        before = [p.data.copy() for p in pre.generator.parameters()]
        pre.step(dataset.targets_batch([0, 1]))
        changed = any(not np.array_equal(a, p.data) for a, p in
                      zip(before, pre.generator.parameters()))
        assert changed

    def test_chain_rule_wiring(self, litho32, kernels32, dataset):
        """dE/dM injected at the generator output must reach encoder
        weights — the essence of Algorithm 2 line 8."""
        pre = _pretrainer(litho32, kernels32)
        gen = pre.generator
        targets = dataset.targets_batch([0])
        out = gen(nn.Tensor(targets))
        _, grads = pre.batch_litho_gradient(out.data, targets)
        out.backward(grads)
        first_conv = dict(gen.named_parameters())["encoder.0.0.weight"]
        assert first_conv.grad is not None
        assert np.abs(first_conv.grad).sum() > 0

    def test_training_reduces_litho_error(self, litho32, kernels32, dataset):
        """Pre-training must descend the lithography error — the whole
        point of Algorithm 2."""
        pre = _pretrainer(litho32, kernels32)
        history = pre.train(dataset, iterations=25,
                            rng=np.random.default_rng(3))
        assert history.iterations == 25
        early = np.mean(history.litho_error[:5])
        late = np.mean(history.litho_error[-5:])
        assert late < early

    def test_needs_no_reference_masks(self, litho32, kernels32):
        """Algorithm 2 must work on a dataset whose reference masks were
        never built (litho guidance replaces ground truth)."""
        ds = SyntheticDataset(litho32, size=3, seed=33, kernels=kernels32)
        pre = _pretrainer(litho32, kernels32)
        pre.train(ds, iterations=2, rng=np.random.default_rng(0))
        assert all(mask is None for mask in ds._masks)

    def test_runtime_recorded(self, litho32, kernels32, dataset):
        pre = _pretrainer(litho32, kernels32)
        history = pre.train(dataset, iterations=2,
                            rng=np.random.default_rng(0))
        assert history.runtime_seconds > 0


class TestGroundTruthPretrainer:
    def test_reduces_mask_mse(self, dataset):
        gen = MaskGenerator((4, 8), rng=np.random.default_rng(1))
        pre = GroundTruthPretrainer(gen, _config())
        history = pre.train(dataset, iterations=25,
                            rng=np.random.default_rng(3))
        early = np.mean(history.litho_error[:5])
        late = np.mean(history.litho_error[-5:])
        assert late < early

    def test_step_returns_loss(self, dataset):
        gen = MaskGenerator((4, 8), rng=np.random.default_rng(1))
        pre = GroundTruthPretrainer(gen, _config())
        targets, masks = dataset.pairs_batch([0, 1])
        loss = pre.step(targets, masks)
        assert np.isfinite(loss) and loss >= 0
