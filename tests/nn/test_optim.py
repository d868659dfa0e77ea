"""Unit tests for the Adam optimizer and gradient-norm clipping."""

import numpy as np
import pytest

from repro import nn
from repro.nn.modules import Parameter


def _quadratic_param(start=5.0):
    return Parameter(np.array([start]))


def _step(param, opt, steps=1):
    for _ in range(steps):
        opt.zero_grad()
        # loss = 0.5 * p^2, grad = p
        param.grad = param.data.copy()
        opt.step()


class TestOptimizerBase:
    def test_requires_parameters(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_requires_positive_lr(self):
        with pytest.raises(ValueError):
            nn.Adam([_quadratic_param()], lr=0.0)

    def test_zero_grad(self):
        p = _quadratic_param()
        p.grad = np.array([1.0])
        opt = nn.Adam([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_skips_parameters_without_grad(self):
        p = _quadratic_param()
        opt = nn.Adam([p], lr=0.1)
        opt.step()  # no grad set: must not crash or move
        np.testing.assert_allclose(p.data, [5.0])


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction, |first step| ~= lr regardless of grad scale.
        for scale in (1e-3, 1.0, 1e3):
            p = Parameter(np.array([0.0]))
            opt = nn.Adam([p], lr=0.1)
            p.grad = np.array([scale])
            opt.step()
            np.testing.assert_allclose(abs(p.data[0]), 0.1, rtol=1e-4)

    def test_converges_on_quadratic(self):
        p = _quadratic_param(3.0)
        opt = nn.Adam([p], lr=0.2)
        _step(p, opt, steps=150)
        assert abs(float(p.data[0])) < 2e-2

    def test_validates_betas(self):
        with pytest.raises(ValueError):
            nn.Adam([_quadratic_param()], lr=0.1, betas=(1.0, 0.999))

    def test_weight_decay_moves_toward_zero(self):
        p = _quadratic_param(1.0)
        opt = nn.Adam([p], lr=0.01, weight_decay=10.0)
        p.grad = np.array([0.0])
        opt.step()
        assert float(p.data[0]) < 1.0

    def test_state_dict_roundtrip(self):
        p = _quadratic_param()
        opt = nn.Adam([p], lr=0.1)
        _step(p, opt, 5)
        state = opt.state_dict()
        opt2 = nn.Adam([p], lr=0.9)
        opt2.load_state_dict(state)
        assert opt2._step_count == 5
        np.testing.assert_allclose(opt2._m[0], opt._m[0])
        np.testing.assert_allclose(opt2._v[0], opt._v[0])


class TestGradNorm:
    def _params(self, *grads):
        params = []
        for grad in grads:
            p = Parameter(np.zeros(np.shape(grad) or (1,)))
            p.grad = None if grad is None else np.asarray(grad, dtype=float)
            params.append(p)
        return params

    def test_global_norm(self):
        params = self._params([3.0, 0.0], [0.0, 4.0])
        np.testing.assert_allclose(nn.global_grad_norm(params), 5.0)

    def test_gradless_params_ignored(self):
        params = self._params([3.0], None)
        np.testing.assert_allclose(nn.global_grad_norm(params), 3.0)
        assert nn.global_grad_norm(self._params(None)) == 0.0

    def test_clip_scales_in_place(self):
        params = self._params([3.0, 0.0], [0.0, 4.0])
        norm = nn.clip_grad_norm_(params, max_norm=1.0)
        np.testing.assert_allclose(norm, 5.0)  # pre-clip norm returned
        np.testing.assert_allclose(nn.global_grad_norm(params), 1.0,
                                   rtol=1e-9)

    def test_no_clip_below_threshold(self):
        params = self._params([0.3, 0.4])
        norm = nn.clip_grad_norm_(params, max_norm=1.0)
        np.testing.assert_allclose(norm, 0.5)
        np.testing.assert_allclose(params[0].grad, [0.3, 0.4])

    def test_none_max_norm_only_measures(self):
        params = self._params([30.0])
        assert nn.clip_grad_norm_(params, None) == 30.0
        np.testing.assert_allclose(params[0].grad, [30.0])

    def test_nonfinite_norm_returned_unclipped(self):
        params = self._params([np.nan, 1.0])
        norm = nn.clip_grad_norm_(params, max_norm=1.0)
        assert not np.isfinite(norm)
        # Gradients are left as-is so the caller's divergence policy
        # decides, rather than silently zeroing the update.
        assert np.isnan(params[0].grad[0])
