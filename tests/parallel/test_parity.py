"""Parallel execution must not change results.

Pooled runs are **bit-exact** against the serial code path at either
caller precision (ILT is noise-free descent on identical inputs).  The
descent itself always runs on the f32 engine, so it carries the
documented precision tolerance (DESIGN.md §10) against a plain f64
momentum loop written here: the litho error of the final relaxed
masks within 1e-3 relative.
"""

import numpy as np
import pytest

from repro.core import GanOpcConfig, GanOpcFlow, MaskGenerator
from repro.ilt import ILTConfig
from repro.layoutgen import SyntheticDataset
from repro.litho import LithoConfig, LithoEngine, build_kernels, sigmoid_mask
from repro.parallel import parallel_ilt

GRID = 32
ITERS = 10


@pytest.fixture(scope="module")
def litho():
    return LithoConfig.small(GRID)


@pytest.fixture(scope="module")
def targets(litho):
    rng = np.random.default_rng(5)
    return (rng.random((4, GRID, GRID)) > 0.75).astype(float)


@pytest.fixture(scope="module")
def ilt_config():
    return ILTConfig(max_iterations=ITERS)


class TestParallelILTParity:
    def test_f64_bit_exact(self, litho, targets, ilt_config):
        serial = parallel_ilt(targets, litho, ilt_config, workers=1)
        parallel = parallel_ilt(targets, litho, ilt_config, workers=2)
        assert parallel.workers == 2
        for s, p in zip(serial.results, parallel.results):
            np.testing.assert_array_equal(p.mask, s.mask)
            np.testing.assert_array_equal(p.mask_relaxed, s.mask_relaxed)
            np.testing.assert_array_equal(p.params, s.params)
            assert p.l2 == s.l2
            assert p.l2_history == s.l2_history
            assert p.relaxed_history == s.relaxed_history
            assert p.iterations == s.iterations
            assert p.converged == s.converged

    def test_warm_start_bit_exact(self, litho, targets, ilt_config):
        initial = np.clip(targets + 0.25, 0.0, 1.0)
        serial = parallel_ilt(targets, litho, ilt_config, workers=1,
                              initial_masks=initial)
        parallel = parallel_ilt(targets, litho, ilt_config, workers=2,
                                initial_masks=initial)
        np.testing.assert_array_equal(parallel.masks, serial.masks)

    def test_f32_parallel_matches_f32_serial(self, litho, targets,
                                             ilt_config):
        serial = parallel_ilt(targets, litho, ilt_config, workers=1,
                              precision="f32")
        parallel = parallel_ilt(targets, litho, ilt_config, workers=2,
                                precision="f32")
        np.testing.assert_array_equal(parallel.masks, serial.masks)
        np.testing.assert_array_equal(parallel.l2, serial.l2)

    def test_f32_litho_error_within_tolerance(self, litho, targets,
                                              ilt_config):
        """The documented f32 tolerance: litho error of the final
        relaxed masks within 1e-3 relative of an f64 descent's."""
        run32 = parallel_ilt(targets, litho, ilt_config, workers=2,
                             precision="f32")
        assert [r.iterations for r in run32.results] == [ITERS] * len(targets)
        # f64 reference: the same momentum descent, no early stop.
        engine = LithoEngine.for_kernels(build_kernels(litho), "f64")
        params = ilt_config.init_scale * (2.0 * targets - 1.0)
        velocity = np.zeros_like(params)
        for _ in range(ITERS):
            _, grad = engine.error_and_gradient(
                params, targets, threshold=litho.threshold,
                resist_steepness=litho.resist_steepness,
                mask_steepness=litho.mask_steepness)
            velocity = ilt_config.momentum * velocity \
                - ilt_config.step_size * grad
            params = params + velocity
        relaxed64 = sigmoid_mask(params, litho.mask_steepness)
        relaxed32 = np.stack([r.mask_relaxed for r in run32.results])
        err64 = engine.litho_error(relaxed64, targets)
        err32 = engine.litho_error(relaxed32, targets)
        delta = np.abs(err32 - err64) / np.maximum(err64, 1.0)
        assert delta.max() <= 1e-3, delta

    def test_pool_stats_populated(self, litho, targets, ilt_config):
        result = parallel_ilt(targets, litho, ilt_config, workers=2)
        assert result.pool_stats is not None
        assert result.pool_stats.tasks == len(targets)
        assert result.runtime_seconds > 0.0


class TestDatasetParity:
    def test_precompute_parallel_bit_exact(self, litho):
        ilt_config = ILTConfig(max_iterations=6)
        kwargs = dict(size=3, seed=11, ilt_config=ilt_config)
        serial = SyntheticDataset(litho, **kwargs)
        serial.precompute()
        parallel = SyntheticDataset(litho, **kwargs)
        parallel.precompute(workers=2)
        for i in range(3):
            np.testing.assert_array_equal(parallel.target(i),
                                          serial.target(i))
            np.testing.assert_array_equal(parallel.reference_mask(i),
                                          serial.reference_mask(i))
            assert parallel.layout(i).rects == serial.layout(i).rects

    def test_precompute_parallel_skips_cached(self, litho):
        dataset = SyntheticDataset(litho, size=2, seed=11,
                                   ilt_config=ILTConfig(max_iterations=4))
        dataset.precompute()
        masks = [dataset.reference_mask(i).copy() for i in range(2)]
        dataset.precompute(workers=2)  # everything cached: no-op
        for i in range(2):
            np.testing.assert_array_equal(dataset.reference_mask(i),
                                          masks[i])


class TestFlowParity:
    def test_optimize_batch_parallel_bit_exact(self, litho, targets):
        config = GanOpcConfig.small(GRID)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(2))
        generator.eval()
        flow = GanOpcFlow(generator, litho,
                          ILTConfig(max_iterations=6, patience=4))
        serial = flow.optimize_batch(targets)
        parallel = flow.optimize_batch(targets, workers=2)
        assert len(parallel) == len(serial)
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(p.generated_mask, s.generated_mask)
            np.testing.assert_array_equal(p.mask, s.mask)
            assert p.l2 == s.l2
            assert p.ilt_result.iterations == s.ilt_result.iterations
