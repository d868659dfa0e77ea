"""Unit tests for the end-to-end GAN-OPC flow (Figure 6)."""

import numpy as np
import pytest

from repro.core import FlowResult, GanOpcFlow, MaskGenerator
from repro.ilt import ILTConfig
from repro.metrics import squared_l2


@pytest.fixture(scope="module")
def flow(litho32, kernels32):
    gen = MaskGenerator((4, 8), rng=np.random.default_rng(1))
    return GanOpcFlow(gen, litho32,
                      ILTConfig(max_iterations=30, patience=3),
                      kernels=kernels32)


def _target(grid=32):
    target = np.zeros((grid, grid))
    target[12:22, 4:28] = 1.0
    return target


class TestFlow:
    def test_result_structure(self, flow):
        result = flow.optimize(_target())
        assert isinstance(result, FlowResult)
        assert result.mask.shape == (32, 32)
        assert result.generated_mask.shape == (32, 32)
        assert set(np.unique(result.mask)) <= {0.0, 1.0}

    def test_runtime_split(self, flow):
        result = flow.optimize(_target())
        assert result.generation_seconds > 0
        assert result.refinement_seconds > 0
        np.testing.assert_allclose(
            result.runtime_seconds,
            result.generation_seconds + result.refinement_seconds)

    def test_refinement_improves_on_generation(self, flow, engine32):
        """The ILT refinement stage must not print worse than the raw
        generated mask."""
        target = _target()
        result = flow.optimize(target)
        raw_wafer = engine32.wafer((result.generated_mask >= 0.5).astype(float))
        raw_l2 = squared_l2(raw_wafer, target)
        assert result.l2 <= raw_l2

    def test_refine_iterations_override(self, flow):
        result = flow.optimize(_target(), refine_iterations=5)
        assert result.ilt_result.iterations <= 5

    def test_generation_much_faster_than_refinement(self, flow):
        """The paper: 'feed-forward computation only takes 0.2s ...
        runtime of our flow is almost determined by ILT refinements'."""
        result = flow.optimize(_target())
        assert result.generation_seconds < result.refinement_seconds
