"""Physics checks of the engine's mask -> wafer simulation (Eqs. 2-3, 11)."""

import numpy as np
import pytest

from repro.litho import LithoConfig, LithoEngine

from .reference import relaxed_wafer


def _wire(grid, width=10):
    mask = np.zeros((grid, grid))
    lo = grid // 2 - width // 2
    mask[lo:lo + width, 4:grid - 4] = 1.0
    return mask


class TestSimulator:
    def test_wafer_is_binary(self, engine32):
        wafer = engine32.wafer(_wire(32))
        assert set(np.unique(wafer)) <= {0.0, 1.0}

    def test_wire_prints_near_target_size(self, engine64):
        """An 80nm wire at nominal dose must print with its area within
        ~25% of drawn — the physics sanity check of the whole model."""
        mask = _wire(64)
        wafer = engine64.wafer(mask)
        assert 0.75 * mask.sum() < wafer.sum() < 1.25 * mask.sum()

    def test_relaxed_wafer_tracks_hard(self, engine32):
        mask = _wire(32)
        hard = engine32.wafer(mask)
        relaxed = relaxed_wafer(engine32, mask)
        np.testing.assert_allclose(np.round(relaxed), hard, atol=0.4)

    def test_corners_nested(self, engine64, litho64):
        """Over-dose prints a superset of nominal, under-dose a subset
        (intensity scaling is monotone)."""
        mask, dv = _wire(64), litho64.dose_variation
        outer = engine64.wafer(mask, dose=1.0 + dv)
        nominal = engine64.wafer(mask)
        inner = engine64.wafer(mask, dose=1.0 - dv)
        assert np.all(outer >= nominal)
        assert np.all(nominal >= inner)

    def test_litho_error_zero_for_perfect_match(self, engine32):
        mask = _wire(32)
        wafer = engine32.wafer(mask)
        assert engine32.litho_error(mask, wafer) == 0.0

    def test_litho_error_counts_mismatch(self, engine32):
        mask = _wire(32)
        wafer = engine32.wafer(mask)
        flipped = wafer.copy()
        flipped[0, 0] = 1.0 - flipped[0, 0]
        assert engine32.litho_error(mask, flipped) == 1.0

    def test_kernel_injection_validated(self, litho32, kernels32):
        other = LithoConfig.small(64)
        with pytest.raises(ValueError):
            LithoEngine(other, kernels=kernels32)

    def test_properties(self, engine32, litho32):
        assert engine32.grid == 32
        assert engine32.threshold == litho32.threshold

    def test_dose_monotonicity_of_printed_area(self, engine64):
        mask = _wire(64)
        areas = [engine64.wafer(mask, dose=d).sum()
                 for d in (0.9, 1.0, 1.1)]
        assert areas[0] <= areas[1] <= areas[2]
