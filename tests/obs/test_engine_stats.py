"""The process-wide litho counters (``LithoEngine.stats``)."""

import numpy as np

from repro.litho import ConditionSet, LithoEngine
from repro.litho.engine import EngineStats


class TestEngineStats:
    def test_attributes_are_typed(self):
        stats = EngineStats()
        stats.record_forward(8, 0.5)
        stats.record_forward(2, 0.25)
        stats.record_gradient(4, 1.0)
        assert stats.forward_calls == 2
        assert isinstance(stats.forward_calls, int)
        assert isinstance(stats.gradient_masks, int)
        assert stats.forward_masks == 10
        assert stats.forward_seconds == 0.75
        assert stats.gradient_calls == 1
        assert stats.gradient_masks == 4

    def test_snapshot_and_delta(self):
        stats = EngineStats()
        assert stats.snapshot() == {
            "forward_calls": 0, "forward_masks": 0, "forward_seconds": 0.0,
            "gradient_calls": 0, "gradient_masks": 0,
            "gradient_seconds": 0.0}
        stats.record_forward(1, 0.1)
        before = stats.snapshot()
        stats.record_gradient(2, 0.2)
        delta = stats.delta(before)
        assert delta == {
            "forward_calls": 0, "forward_masks": 0, "forward_seconds": 0.0,
            "gradient_calls": 1, "gradient_masks": 2,
            "gradient_seconds": 0.2}
        assert all(isinstance(delta[key], int) for key in
                   ("forward_calls", "forward_masks",
                    "gradient_calls", "gradient_masks"))
        # A snapshot is a copy, not a view of the counters.
        assert before["gradient_calls"] == 0

    def test_unknown_attribute_raises(self):
        stats = EngineStats()
        try:
            stats.no_such_field
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected AttributeError")

    def test_nominal_and_corner_stack_count_into_one_delta(self, kernels32):
        nominal = LithoEngine.for_kernels(kernels32)
        corners = LithoEngine.for_conditions(kernels32,
                                             ConditionSet.dose_corners())
        assert corners is not nominal
        assert nominal.stats is corners.stats is LithoEngine.stats
        mask = np.zeros((32, 32))
        mask[8:24, 8:24] = 1.0
        before = LithoEngine.stats.snapshot()
        nominal.aerial(mask)
        corners.condition_aerial(mask)
        corners.condition_error_and_gradient_wrt_mask(
            np.stack([0.2 + 0.6 * mask] * 2), np.stack([mask] * 2))
        delta = LithoEngine.stats.delta(before)
        assert delta["forward_calls"] == 2
        assert delta["forward_masks"] == 2
        assert delta["gradient_calls"] == 1
        assert delta["gradient_masks"] == 2
