"""Unit tests for the model-based OPC engine."""

import numpy as np
import pytest

from repro.geometry import Layout, Rect
from repro.metrics import squared_l2
from repro.opc import MbOpcConfig, ModelBasedOPC


@pytest.fixture(scope="module")
def engine(litho64, kernels64):
    return ModelBasedOPC(litho64, MbOpcConfig(iterations=5),
                         kernels=kernels64)


def _clip(extent=512.0):
    return Layout(extent=extent, rects=[
        Rect(80, 104, 432, 184),
        Rect(80, 304, 432, 384),
    ], name="mbopc-test")


class TestMbOpcConfig:
    @pytest.mark.parametrize("kwargs", [
        {"iterations": 0},
        {"gain": 0.0},
        {"gain": 2.0},
        {"max_offset": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            MbOpcConfig(**kwargs)


class TestMaskAssembly:
    def test_zero_offsets_reproduce_target(self, engine):
        from repro.geometry import rasterize
        from repro.opc import fragment_layout
        layout = _clip()
        segments = fragment_layout(layout, 40.0)
        mask = engine.mask_from_segments(layout, segments)
        target = (rasterize(layout, 64) >= 0.5).astype(float)
        np.testing.assert_array_equal(mask, target)

    def test_positive_offset_grows_mask(self, engine):
        from repro.opc import fragment_layout
        layout = _clip()
        segments = [s.with_offset(16.0) for s in fragment_layout(layout, 40.0)]
        grown = engine.mask_from_segments(layout, segments)
        zero = engine.mask_from_segments(
            layout, fragment_layout(layout, 40.0))
        assert grown.sum() > zero.sum()

    def test_negative_offset_shrinks_mask(self, engine):
        from repro.opc import fragment_layout
        layout = _clip()
        segments = [s.with_offset(-16.0) for s in fragment_layout(layout, 40.0)]
        shrunk = engine.mask_from_segments(layout, segments)
        zero = engine.mask_from_segments(
            layout, fragment_layout(layout, 40.0))
        assert shrunk.sum() < zero.sum()


class TestOptimize:
    def test_improves_printability(self, engine, engine64):
        """MB-OPC must beat printing the raw target (the Figure 1
        'conventional flow works' check)."""
        from repro.geometry import rasterize
        layout = _clip()
        target = (rasterize(layout, 64) >= 0.5).astype(float)
        baseline = squared_l2(engine64.wafer(target), target)
        result = engine.optimize(layout)
        assert result.l2 < baseline

    def test_histories_and_runtime(self, engine):
        result = engine.optimize(_clip())
        assert len(result.l2_history) == engine.config.iterations + 1
        assert result.runtime_seconds > 0

    def test_offsets_clamped(self, engine):
        result = engine.optimize(_clip())
        limit = engine.config.max_offset
        assert all(abs(s.offset) <= limit + 1e-9 for s in result.segments)

    def test_mask_binary(self, engine):
        result = engine.optimize(_clip())
        assert set(np.unique(result.mask)) <= {0.0, 1.0}


class TestEpeClamping:
    def test_all_dark_wafer_clamps_to_negative_range(self, engine):
        from repro.opc.fragments import fragment_layout

        layout = _clip()
        segments = fragment_layout(layout, 40.0)
        wafer = np.zeros((64, 64))
        epes = engine.measure_segment_epes(wafer, layout, segments)
        assert np.all(epes == -engine.config.search_range)

    def test_all_bright_wafer_clamps_to_positive_range(self, litho64,
                                                       kernels64):
        from repro.opc.fragments import fragment_layout

        # Short search range keeps the outward walk inside the raster,
        # so a fully-bright wafer yields +inf -> clamped to +range.
        engine = ModelBasedOPC(litho64,
                               MbOpcConfig(iterations=1, search_range=40.0),
                               kernels=kernels64)
        layout = _clip()
        segments = fragment_layout(layout, 40.0)
        wafer = np.ones((64, 64))
        epes = engine.measure_segment_epes(wafer, layout, segments)
        assert np.all(epes == engine.config.search_range)


class TestStripWindowClipping:
    def test_strip_displaced_outside_window_is_skipped(self, engine):
        from repro.opc.fragments import EdgeSegment

        layout = Layout(extent=512.0, rects=[Rect(0.0, 104, 104, 184)])
        base = (engine.mask_from_segments(layout, []) >= 0.5)
        # An edge on the window boundary pushed outward sweeps a strip
        # entirely outside the clip: intersection fails, strip skipped.
        segment = EdgeSegment(0, (0.0, 104.0), (0.0, 184.0), (-1, 0),
                              offset=16.0)
        mask = engine.mask_from_segments(layout, [segment]) >= 0.5
        assert np.array_equal(mask, base)
