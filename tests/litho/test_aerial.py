"""Unit tests for aerial image formation (Eq. 2)."""

import numpy as np
import pytest


def _wire_mask(grid=32, width=10):
    mask = np.zeros((grid, grid))
    lo = grid // 2 - width // 2
    mask[lo:lo + width, 4:grid - 4] = 1.0
    return mask


class TestAerialImage:
    def test_clear_field_is_one(self, engine32):
        intensity = engine32.aerial(np.ones((32, 32)))
        np.testing.assert_allclose(intensity, 1.0, rtol=1e-9)

    def test_dark_field_is_zero(self, engine32):
        intensity = engine32.aerial(np.zeros((32, 32)))
        np.testing.assert_allclose(intensity, 0.0, atol=1e-12)

    def test_nonnegative(self, engine32, rng):
        intensity = engine32.aerial(rng.random((32, 32)))
        assert np.all(intensity >= 0)

    def test_dose_scales_linearly(self, engine32):
        mask = _wire_mask()
        nominal = engine32.aerial(mask)
        overdose = engine32.aerial(mask, dose=1.02)
        np.testing.assert_allclose(overdose, nominal * 1.02, rtol=1e-12)

    def test_translation_equivariance(self, engine32):
        """Shifting the mask circularly shifts the image (the imaging
        operator is a sum of convolutions)."""
        mask = _wire_mask()
        shifted = np.roll(mask, (3, 5), axis=(0, 1))
        np.testing.assert_allclose(
            engine32.aerial(shifted),
            np.roll(engine32.aerial(mask), (3, 5), axis=(0, 1)),
            atol=1e-9)

    def test_intensity_peaks_inside_pattern(self, engine32):
        mask = _wire_mask()
        intensity = engine32.aerial(mask)
        inside_mean = intensity[mask > 0.5].mean()
        outside_mean = intensity[mask < 0.5].mean()
        assert inside_mean > 3 * outside_mean

    def test_lowpass_blurs_edges(self, engine32):
        """The aerial image of a sharp edge must be smooth: finite
        optical bandwidth cannot reproduce a step."""
        mask = _wire_mask()
        intensity = engine32.aerial(mask)
        row = intensity[16]
        assert np.abs(np.diff(row)).max() < 0.5  # no step-like jump

    def test_rejects_non_square(self, engine32):
        with pytest.raises(ValueError):
            engine32.aerial(np.zeros((16, 32)))

    def test_rejects_grid_mismatch(self, engine32):
        with pytest.raises(ValueError):
            engine32.aerial(np.zeros((64, 64)))


class TestFields:
    def test_fields_shape(self, engine32):
        fields = engine32.fields(_wire_mask())
        assert fields.shape == (24, 32, 32)
        assert np.iscomplexobj(fields)

    def test_spectrum_reuse_consistent(self, engine32):
        mask = _wire_mask()
        spectrum = engine32.spectrum(mask)
        np.testing.assert_allclose(engine32.fields(mask),
                                   engine32.fields(mask, spectrum))

    def test_intensity_equals_weighted_field_power(self, engine32):
        mask = _wire_mask()
        intensity, fields = engine32.aerial_and_fields(mask)
        manual = np.einsum("k,kxy->xy", engine32.kernels.weights,
                           np.abs(fields) ** 2)
        np.testing.assert_allclose(intensity, manual)
