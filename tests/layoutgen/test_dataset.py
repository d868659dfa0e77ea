"""Unit tests for the synthetic training dataset."""

import numpy as np
import pytest

from repro.ilt import ILTConfig
from repro.layoutgen import SyntheticDataset


@pytest.fixture(scope="module")
def dataset(litho32, kernels32):
    return SyntheticDataset(litho32, size=5, seed=11, kernels=kernels32,
                            ilt_config=ILTConfig(max_iterations=20))


class TestDataset:
    def test_size_validation(self, litho32):
        with pytest.raises(ValueError):
            SyntheticDataset(litho32, size=0)

    def test_len(self, dataset):
        assert len(dataset) == 5

    def test_index_bounds(self, dataset):
        with pytest.raises(IndexError):
            dataset.target(5)
        with pytest.raises(IndexError):
            dataset.layout(-1)

    def test_targets_binary_on_grid(self, dataset):
        target = dataset.target(0)
        assert target.shape == (32, 32)
        assert set(np.unique(target)) <= {0.0, 1.0}

    def test_layout_extent_matches_litho_window(self, dataset, litho32):
        assert dataset.layout(0).extent == litho32.extent_nm

    def test_lazy_caching_returns_same_arrays(self, dataset):
        assert dataset.target(1) is dataset.target(1)
        assert dataset.reference_mask(1) is dataset.reference_mask(1)

    def test_instances_differ(self, dataset):
        assert not np.array_equal(dataset.target(0), dataset.target(2))

    def test_reference_mask_prints_near_target(self, dataset, engine32):
        """The ILT ground truth must actually be a good mask."""
        target = dataset.target(0)
        mask = dataset.reference_mask(0)
        wafer = engine32.wafer(mask)
        mismatch = np.abs(wafer - target).sum()
        assert mismatch < 0.25 * target.sum() + 16

    def test_pair(self, dataset):
        pair = dataset.pair(2)
        np.testing.assert_array_equal(pair.target, dataset.target(2))
        np.testing.assert_array_equal(pair.mask, dataset.reference_mask(2))

    def test_batch_shapes(self, dataset):
        targets = dataset.targets_batch([0, 1, 2])
        assert targets.shape == (3, 1, 32, 32)
        targets, masks = dataset.pairs_batch([0, 1])
        assert targets.shape == (2, 1, 32, 32)
        assert masks.shape == (2, 1, 32, 32)

    def test_minibatches_cover_dataset(self, dataset):
        rng = np.random.default_rng(0)
        batches = list(dataset.minibatches(2, rng, epochs=1, with_masks=False))
        assert len(batches) == 2  # 5 // 2, short batch dropped
        for targets, masks in batches:
            assert targets.shape == (2, 1, 32, 32)
            assert masks is None

    def test_minibatches_with_masks(self, dataset):
        rng = np.random.default_rng(0)
        targets, masks = next(dataset.minibatches(2, rng))
        assert masks.shape == (2, 1, 32, 32)

    def test_minibatch_batch_size_validated(self, dataset):
        with pytest.raises(ValueError):
            next(dataset.minibatches(0, np.random.default_rng(0)))

    def test_precompute(self, litho32, kernels32):
        ds = SyntheticDataset(litho32, size=2, seed=3, kernels=kernels32,
                              ilt_config=ILTConfig(max_iterations=5))
        ds.precompute()
        assert all(mask is not None for mask in ds._masks)

    def test_reproducible_across_instances(self, litho32, kernels32):
        a = SyntheticDataset(litho32, size=3, seed=11, kernels=kernels32)
        b = SyntheticDataset(litho32, size=3, seed=11, kernels=kernels32)
        np.testing.assert_array_equal(a.target(2), b.target(2))
