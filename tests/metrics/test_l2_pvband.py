"""Unit tests for L2 (Definition 1) and PV band metrics."""

import numpy as np
import pytest

from repro.metrics import (evaluate_mask, squared_l2, squared_l2_nm2,
                           window_pv_band, window_pv_band_nm2)


class TestSquaredL2:
    def test_zero_for_identical(self):
        image = np.ones((8, 8))
        assert squared_l2(image, image) == 0.0

    def test_equals_xor_count_for_binary(self, rng):
        a = (rng.random((16, 16)) > 0.5).astype(float)
        b = (rng.random((16, 16)) > 0.5).astype(float)
        assert squared_l2(a, b) == np.logical_xor(a > 0, b > 0).sum()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            squared_l2(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_nm2_scaling(self):
        a = np.zeros((4, 4))
        b = a.copy()
        b[0, 0] = 1.0
        assert squared_l2_nm2(a, b, pixel_nm=8.0) == 64.0

    def test_symmetry(self, rng):
        a = rng.random((8, 8))
        b = rng.random((8, 8))
        assert squared_l2(a, b) == squared_l2(b, a)


class TestPVBand:
    """Table 2's PVB: the band of the nested dose-corner wafers
    (under-dose, nominal, over-dose), i.e. over-dose XOR under-dose."""

    def test_counts_band_pixels(self):
        inner = np.zeros((4, 4))
        outer = np.zeros((4, 4))
        outer[1:3, 1:3] = 1.0
        wafers = np.stack([inner, outer, outer])
        assert window_pv_band(wafers) == 4.0
        assert window_pv_band_nm2(wafers, 8.0) == 256.0

    def test_mask_pv_band_positive_for_printing_mask(self, engine64):
        mask = np.zeros((64, 64))
        mask[27:37, 8:56] = 1.0
        assert evaluate_mask(engine64, mask, mask).pvband_nm2 > 0.0

    def test_empty_mask_zero_band(self, engine64):
        empty = np.zeros((64, 64))
        assert evaluate_mask(engine64, empty, empty).pvband_nm2 == 0.0
