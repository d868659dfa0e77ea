"""Unit tests for mask rule checking and cleanup."""

import numpy as np
import pytest

from repro.opc import MrcConfig, check_mask, cleanup_mask

PIXEL = 8.0  # nm


def _base_mask(grid=32):
    mask = np.zeros((grid, grid))
    mask[10:20, 4:28] = 1.0  # healthy 80nm feature
    return mask


class TestMrcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MrcConfig(min_feature=0.0)
        with pytest.raises(ValueError):
            MrcConfig(min_area=-1.0)


class TestCheckMask:
    def test_clean_mask(self):
        report = check_mask(_base_mask(), PIXEL)
        assert report.clean
        assert report.total == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            check_mask(np.zeros((4, 4, 4)), PIXEL)
        with pytest.raises(ValueError):
            check_mask(np.zeros((4, 4)), 0.0)

    def test_narrow_feature_flagged(self):
        mask = _base_mask()
        mask[25:27, 4:28] = 1.0  # 16nm sliver < 32nm min feature... 2px=16nm
        report = check_mask(mask, PIXEL, MrcConfig(min_feature=32.0))
        assert report.width_violations >= 1

    def test_narrow_space_flagged(self):
        mask = np.zeros((32, 32))
        mask[8:16, 4:28] = 1.0
        mask[18:26, 4:28] = 1.0  # 2px = 16nm gap < 32nm min space
        report = check_mask(mask, PIXEL, MrcConfig(min_space=32.0))
        assert report.space_violations >= 1

    def test_wide_space_clean(self):
        mask = np.zeros((32, 32))
        mask[4:12, 4:28] = 1.0
        mask[20:28, 4:28] = 1.0  # 8px = 64nm gap
        report = check_mask(mask, PIXEL, MrcConfig(min_space=32.0))
        assert report.space_violations == 0

    def test_border_background_not_a_space_violation(self):
        mask = np.zeros((32, 32))
        mask[1:9, 4:28] = 1.0  # 1px of background above, on the border
        report = check_mask(mask, PIXEL, MrcConfig(min_space=32.0))
        assert report.space_violations == 0

    def test_small_island_flagged(self):
        mask = _base_mask()
        mask[26, 26] = 1.0  # 64 nm^2 island << 1600 nm^2
        report = check_mask(mask, PIXEL)
        assert report.small_islands == 1

    def test_pinhole_flagged(self):
        mask = _base_mask()
        mask[14, 10] = 0.0  # 1px hole inside the feature
        report = check_mask(mask, PIXEL)
        assert report.pinholes == 1

    def test_background_region_touching_border_not_pinhole(self):
        report = check_mask(_base_mask(), PIXEL)
        assert report.pinholes == 0


class TestCleanupMask:
    def test_removes_small_islands(self):
        mask = _base_mask()
        mask[26, 26] = 1.0
        cleaned = cleanup_mask(mask, PIXEL)
        assert cleaned[26, 26] == 0.0
        assert check_mask(cleaned, PIXEL).small_islands == 0

    def test_fills_pinholes(self):
        mask = _base_mask()
        mask[14, 10] = 0.0
        cleaned = cleanup_mask(mask, PIXEL)
        assert cleaned[14, 10] == 1.0
        assert check_mask(cleaned, PIXEL).pinholes == 0

    def test_keeps_large_features(self):
        mask = _base_mask()
        cleaned = cleanup_mask(mask, PIXEL)
        np.testing.assert_array_equal(cleaned, mask)

    def test_idempotent(self):
        mask = _base_mask()
        mask[26, 26] = 1.0
        mask[14, 10] = 0.0
        once = cleanup_mask(mask, PIXEL)
        twice = cleanup_mask(once, PIXEL)
        np.testing.assert_array_equal(once, twice)

    def test_cleanup_barely_affects_printing(self, engine32, litho32):
        """Dropping sub-resolution islands must not change the wafer
        image materially (they do not expose)."""
        from repro.ilt import ILTConfig, ILTOptimizer
        from repro.metrics import squared_l2
        target = _base_mask()
        result = ILTOptimizer(litho32, ILTConfig(max_iterations=60),
                              kernels=engine32.kernels).optimize(target)
        # Only remove truly sub-resolution debris (< 5 px); larger ILT
        # islands act as assist features and must be kept.
        config = MrcConfig(min_area=320.0)
        cleaned = cleanup_mask(result.mask, litho32.pixel_nm, config)
        before = squared_l2(engine32.wafer(result.mask), target)
        after = squared_l2(engine32.wafer(cleaned), target)
        assert after <= before + 8


class TestEdgeCases:
    def test_empty_mask_is_clean(self):
        report = check_mask(np.zeros((32, 32)), PIXEL)
        assert report.clean
        assert report.total == 0

    def test_large_enclosed_hole_is_not_a_pinhole(self):
        mask = np.zeros((32, 32))
        mask[2:30, 2:30] = 1.0
        mask[8:24, 8:24] = 0.0  # 16x16 px = (128nm)^2 >= min_area
        report = check_mask(mask, PIXEL,
                            MrcConfig(min_feature=16.0, min_space=16.0,
                                      min_area=1600.0))
        assert report.pinholes == 0

    def test_cleanup_preserves_large_holes(self):
        mask = np.zeros((32, 32))
        mask[2:30, 2:30] = 1.0
        mask[8:24, 8:24] = 0.0
        cleaned = cleanup_mask(mask, PIXEL)
        assert np.array_equal(cleaned, mask)
