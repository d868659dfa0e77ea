"""The shared sigmoid and the leaky-ReLU slope array, bit for bit against
two-branch reference formulas."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.numerics import stable_sigmoid

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 5e-324,
           -5e-324, 1e-17, -1e-17, 88.0, -88.0, 104.0, -104.0, 700.0, -700.0,
           800.0, -800.0]


def _resist_sigmoid(x):
    """Two branches over ``exp(-|x|)``."""
    x = np.asarray(x)
    dtype = x.dtype if x.dtype == np.float32 else np.float64
    x = x.astype(dtype, copy=False)
    e = np.exp(-np.abs(x))
    denominator = 1.0 + e
    return np.where(x >= 0, 1.0 / denominator, e / denominator)


def _tensor_sigmoid(x):
    """Two branches over clipped inputs."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                    np.exp(np.clip(x, None, 0))
                    / (1.0 + np.exp(np.clip(x, None, 0))))


def _inputs(dtype):
    rng = np.random.default_rng(7)
    random = 30.0 * rng.standard_normal((64, 64))
    # Large same-sign regions, as in an aerial image or a mask.
    u, v = np.meshgrid(np.linspace(0, 6, 128), np.linspace(0, 4, 128))
    coherent = 40.0 * np.sin(u) * np.cos(v)
    return [np.asarray(a, dtype=dtype) for a in (random, coherent, SPECIAL)]


def _assert_same_bits(actual, expected):
    """Equal bit patterns (so +0 differs from -0), except that a NaN may
    carry either sign: for a NaN input the clipped formula returns +NaN,
    the others -NaN."""
    assert actual.dtype == expected.dtype
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.uint8),
                                  expected[~nan].view(np.uint8))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stable_sigmoid_bit_identical_to_both_formulas(dtype):
    for x in _inputs(dtype):
        out = stable_sigmoid(x)
        assert out.dtype == dtype
        _assert_same_bits(out, _resist_sigmoid(x))
        _assert_same_bits(out, _tensor_sigmoid(x))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tensor_sigmoid_is_the_shared_sigmoid(dtype):
    for x in _inputs(dtype):
        a = Tensor(x, requires_grad=True)
        out = a.sigmoid()
        assert out.dtype == dtype
        _assert_same_bits(out.data, _tensor_sigmoid(x))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1.0])
def test_leaky_relu_slope_array_bit_identical(dtype, slope):
    x = _inputs(dtype)[0]
    grad = np.random.default_rng(8).standard_normal(x.shape).astype(dtype)
    scale = np.where(x > 0, 1.0, slope).astype(dtype, copy=False)
    a = Tensor(x, requires_grad=True)
    out = a.leaky_relu(slope)
    out.backward(grad)
    assert out.dtype == a.grad.dtype == dtype
    _assert_same_bits(out.data, x * scale)
    _assert_same_bits(a.grad, grad * scale)


def test_leaky_relu_rejects_slope_outside_unit_interval():
    with pytest.raises(ValueError):
        Tensor(np.ones(3)).leaky_relu(-0.1)
