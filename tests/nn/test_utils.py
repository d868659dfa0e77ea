"""Unit tests for gradient-norm clipping and the dtype utilities."""

import numpy as np
import pytest

from repro import nn
from repro.nn.modules import Parameter
from repro.nn.optim import clip_grad_norm_, global_grad_norm


def _params_with_grads():
    a = Parameter(np.zeros(4))
    b = Parameter(np.zeros((2, 2)))
    a.grad = np.full(4, 3.0)
    b.grad = np.full((2, 2), 4.0)
    return a, b


class TestGradNorm:
    def test_global_norm(self):
        a, b = _params_with_grads()
        # sqrt(4*9 + 4*16) = sqrt(100) = 10
        assert global_grad_norm([a, b]) == 10.0

    def test_missing_grads_counted_zero(self):
        a = Parameter(np.zeros(3))
        assert global_grad_norm([a]) == 0.0

    def test_clip_scales_down(self):
        a, b = _params_with_grads()
        norm = clip_grad_norm_([a, b], max_norm=5.0)
        assert norm == 10.0
        assert abs(global_grad_norm([a, b]) - 5.0) < 1e-9

    def test_clip_noop_below_threshold(self):
        a, b = _params_with_grads()
        clip_grad_norm_([a, b], max_norm=100.0)
        assert global_grad_norm([a, b]) == 10.0


class TestToDtype:
    def _model(self):
        return nn.Sequential(nn.Conv2d(1, 2, 3, padding=1),
                             nn.BatchNorm2d(2), nn.ReLU())

    def test_casts_parameters_buffers_and_grads(self):
        model = self._model()
        for p in model.parameters():
            p.grad = np.zeros_like(p.data)
        nn.to_dtype(model, np.float32)
        for p in model.parameters():
            assert p.data.dtype == np.float32
            assert p.grad.dtype == np.float32
        bn = model.layers[1]
        assert bn.running_mean.dtype == np.float32
        # The instance attribute and the registered buffer must be the
        # same array (BatchNorm forward reads the attribute).
        assert bn.running_mean is bn._buffers["running_mean"]

    def test_forward_stays_in_float32(self):
        model = self._model()
        model.eval()
        nn.to_dtype(model, np.float32)
        out = model(nn.Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)))
        assert out.data.dtype == np.float32

    def test_roundtrip_preserves_values(self, rng):
        model = self._model()
        reference = [p.data.copy() for p in model.parameters()]
        nn.to_dtype(model, np.float32)
        nn.to_dtype(model, np.float64)
        for p, ref in zip(model.parameters(), reference):
            assert p.data.dtype == np.float64
            np.testing.assert_allclose(p.data, ref, rtol=1e-7)

    def test_rejects_non_float(self):
        with pytest.raises(ValueError):
            nn.to_dtype(self._model(), np.int32)
