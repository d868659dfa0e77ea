"""Unit tests for resist models (Eqs. 3, 12, 13)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.litho import (binarize_mask, hard_resist, sigmoid_mask,
                         sigmoid_resist)
from repro.numerics import stable_sigmoid


def _masked_sigmoid(x):
    """The gather/scatter formulation the branch-free sigmoid replaced:
    each element goes through the same formula for its sign."""
    x = np.asarray(x)
    dtype = x.dtype if x.dtype == np.float32 else np.float64
    out = np.empty_like(x, dtype=dtype)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


class TestStableSigmoid:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("scale", [1.0, 50.0, 800.0])
    def test_bit_identical_to_masked_formula(self, dtype, scale):
        rng = np.random.default_rng(int(scale))
        x = (scale * rng.standard_normal((64, 64))).astype(dtype)
        x[0, :4] = [0.0, -0.0, np.inf, -np.inf]
        out = stable_sigmoid(x)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, _masked_sigmoid(x))

    def test_non_float_input_computes_in_f64(self):
        out = stable_sigmoid(np.array([-2, 0, 3]))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, _masked_sigmoid([-2, 0, 3]))


class TestHardResist:
    def test_thresholding(self):
        intensity = np.array([0.1, 0.225, 0.3])
        np.testing.assert_allclose(hard_resist(intensity, 0.225), [0, 1, 1])

    def test_output_is_binary(self, rng):
        wafer = hard_resist(rng.random((16, 16)), 0.5)
        assert set(np.unique(wafer)) <= {0.0, 1.0}


class TestSigmoidResist:
    def test_midpoint_is_half(self):
        assert sigmoid_resist(np.array([0.225]), 0.225, 50.0)[0] == 0.5

    def test_steepness_sharpens(self):
        intensity = np.array([0.3])
        soft = sigmoid_resist(intensity, 0.225, 10.0)[0]
        sharp = sigmoid_resist(intensity, 0.225, 200.0)[0]
        assert sharp > soft

    def test_converges_to_hard_resist(self, rng):
        intensity = rng.random((8, 8))
        hard = hard_resist(intensity, 0.4)
        relaxed = sigmoid_resist(intensity, 0.4, 1e4)
        np.testing.assert_allclose(relaxed, hard, atol=1e-3)

    def test_no_overflow_for_extreme_inputs(self):
        out = sigmoid_resist(np.array([-1e6, 1e6]), 0.0, 100.0)
        assert np.all(np.isfinite(out))


class TestSigmoidMask:
    @given(hnp.arrays(np.float64, (4, 4),
                      elements=st.floats(-8, 8)))
    @settings(max_examples=25, deadline=None)
    def test_bounded_open_interval(self, params):
        # |steepness * param| stays below ~36.7, where float64 rounds
        # the sigmoid to exactly 1.0.
        relaxed = sigmoid_mask(params, 4.0)
        assert np.all(relaxed > 0.0)
        assert np.all(relaxed < 1.0)

    def test_saturates_to_unit_interval_for_extremes(self):
        relaxed = sigmoid_mask(np.array([-1e6, 1e6]), 4.0)
        np.testing.assert_allclose(relaxed, [0.0, 1.0])

    def test_monotone_in_params(self):
        params = np.linspace(-3, 3, 11)
        relaxed = sigmoid_mask(params, 4.0)
        assert np.all(np.diff(relaxed) > 0)

    def test_zero_maps_to_half(self):
        assert sigmoid_mask(np.array([0.0]), 4.0)[0] == 0.5


class TestBinarize:
    def test_default_level(self):
        np.testing.assert_allclose(binarize_mask(np.array([0.4, 0.5, 0.6])),
                                   [0, 1, 1])

    def test_custom_level(self):
        np.testing.assert_allclose(binarize_mask(np.array([0.4]), level=0.3),
                                   [1])
