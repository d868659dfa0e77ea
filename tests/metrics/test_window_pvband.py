"""Window PV band over a condition stack, and window columns in
mask evaluation reports."""

import numpy as np
import pytest

from repro.litho import ConditionSet, LithoEngine
from repro.metrics import (evaluate_mask, mask_window_pv_band, window_band,
                           window_pv_band, window_pv_band_nm2)


class TestWindowBand:
    def test_requires_corner_stack(self):
        with pytest.raises(ValueError):
            window_band(np.zeros((4, 4), dtype=bool))
        with pytest.raises(ValueError):
            window_band(np.zeros((2, 2, 4, 4), dtype=bool))

    def test_union_minus_intersection(self):
        wafers = np.zeros((3, 4, 4), dtype=bool)
        wafers[0, 0:2, 0:2] = True
        wafers[1, 0:3, 0:2] = True
        wafers[2, 0:2, 0:2] = True
        band = window_band(wafers)
        expected = np.zeros((4, 4), dtype=bool)
        expected[2, 0:2] = True  # printed at one corner, not at all
        np.testing.assert_array_equal(band, expected)
        assert window_pv_band(wafers) == 2.0
        assert window_pv_band_nm2(wafers, pixel_nm=8.0) == 128.0

    def test_two_corner_stack_is_xor(self, rng):
        wafers = rng.random((2, 8, 8)) > 0.5
        np.testing.assert_array_equal(
            window_band(wafers), np.logical_xor(wafers[0], wafers[1]))

    def test_identical_corners_give_zero(self):
        wafer = np.ones((1, 4, 4), dtype=bool).repeat(5, axis=0)
        assert window_pv_band(wafer) == 0.0


class TestMaskWindowPVBand:
    def test_dose_band_brackets_nominal_pvband(self, litho32, kernels32,
                                               engine32):
        """The +-dose window band equals the classic inner/outer PV band
        (and the PVB column) when the corner stack is exactly the dose
        bracket."""
        mask = np.zeros((32, 32))
        mask[10:22, 8:24] = 1.0
        dv = litho32.dose_variation
        engine = LithoEngine.for_conditions(
            kernels32, ConditionSet.grid(defocuses=(0.0,),
                                         doses=(1.0 - dv, 1.0, 1.0 + dv)))
        outer = engine32.wafer(mask, dose=1.0 + dv) > 0.5
        inner = engine32.wafer(mask, dose=1.0 - dv) > 0.5
        classic = (float(np.logical_xor(outer, inner).sum())
                   * litho32.pixel_nm ** 2)
        assert classic > 0.0
        assert mask_window_pv_band(engine, mask) == classic
        assert evaluate_mask(engine32, mask, mask).pvband_nm2 == classic

    def test_defocus_widens_band(self, kernels32):
        mask = np.zeros((32, 32))
        mask[10:22, 8:24] = 1.0
        dose_only = LithoEngine.for_conditions(
            kernels32, ConditionSet.dose_corners(0.02))
        with_focus = LithoEngine.for_conditions(
            kernels32, ConditionSet.grid(defocuses=(0.0, 60.0),
                                         doses=(0.98, 1.0, 1.02)))
        assert (mask_window_pv_band(with_focus, mask)
                >= mask_window_pv_band(dose_only, mask))


class TestEvaluationWindowColumns:
    @pytest.fixture(scope="class")
    def mask_and_target(self):
        target = np.zeros((32, 32))
        target[12:20, 6:26] = 1.0
        mask = target.copy()
        mask[11:21, 5:27] = 1.0
        return mask, target

    def test_fields_default_to_none(self, engine32, mask_and_target):
        mask, target = mask_and_target
        evaluation = evaluate_mask(engine32, mask, target, name="plain")
        assert evaluation.window_pvband_nm2 is None
        assert evaluation.worst_corner_l2_nm2 is None
        assert evaluation.worst_corner_epe is None
        assert evaluation.as_dict()["window_pvband_nm2"] is None

    def test_condition_engine_fills_window_columns(self, engine32, kernels32,
                                                   mask_and_target):
        mask, target = mask_and_target
        engine = LithoEngine.for_conditions(
            kernels32, ConditionSet.grid(defocuses=(0.0, 40.0),
                                         doses=(0.98, 1.02)))
        evaluation = evaluate_mask(engine32, mask, target, name="window",
                                   condition_engine=engine)
        assert evaluation.window_pvband_nm2 is not None
        assert evaluation.window_pvband_nm2 >= 0.0
        # Worst corner can be no better than the nominal column.
        assert evaluation.worst_corner_l2_nm2 >= 0.0
        payload = evaluation.as_dict()
        assert payload["window_pvband_nm2"] == evaluation.window_pvband_nm2
        assert payload["worst_corner_l2_nm2"] == \
            evaluation.worst_corner_l2_nm2

    def test_worst_corner_epe_needs_layout(self, engine32, kernels32, litho32,
                                           mask_and_target):
        from repro.geometry import Layout, Rect
        mask, target = mask_and_target
        extent = litho32.extent_nm
        px = extent / 32
        layout = Layout(extent=extent,
                        rects=[Rect(6 * px, 12 * px, 26 * px, 20 * px)],
                        name="bar")
        engine = LithoEngine.for_conditions(kernels32,
                                            ConditionSet.dose_corners())
        without = evaluate_mask(engine32, mask, target, name="no-layout",
                                condition_engine=engine)
        assert without.worst_corner_epe is None
        with_layout = evaluate_mask(engine32, mask, target, layout=layout,
                                    name="layout", condition_engine=engine)
        assert with_layout.worst_corner_epe is not None
        assert with_layout.worst_corner_epe >= with_layout.epe_violations
