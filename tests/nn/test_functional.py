"""Unit tests for nn functional ops: convolutions, upsampling, norm, losses."""

import numpy as np
import pytest

from repro import nn
from repro.core import MaskGenerator, PairDiscriminator
from repro.core.unet import UNetMaskGenerator
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from ..conftest import numeric_gradient


class TestConv2d:
    def test_shape_stride_padding(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 9, 9)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        out = F.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 5, 5, 5)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))),
                     Tensor(np.zeros((1, 3, 3, 3))))

    def test_identity_kernel(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(x, Tensor(w), padding=1)
        np.testing.assert_allclose(out.data, x.data)

    def test_matches_direct_computation(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        w = rng.normal(size=(1, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        # Direct cross-correlation at (1, 1).
        expected = float((x[0, 0, 0:3, 0:3] * w[0, 0]).sum())
        assert abs(out[0, 0, 0, 0] - expected) < 1e-10

    def test_gradients_against_numeric(self, rng):
        x_data = rng.normal(size=(2, 2, 5, 5))
        w_data = rng.normal(size=(3, 2, 3, 3))
        b_data = rng.normal(size=(3,))

        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (F.conv2d(x, w, b, stride=2, padding=1) ** 2).sum().backward()

        def objective():
            out = F.conv2d(Tensor(x_data), Tensor(w_data), Tensor(b_data),
                           stride=2, padding=1)
            return float((out.data ** 2).sum())

        np.testing.assert_allclose(x.grad, numeric_gradient(objective, x_data),
                                   rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(w.grad, numeric_gradient(objective, w_data),
                                   rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(b.grad, numeric_gradient(objective, b_data),
                                   rtol=1e-4, atol=1e-7)


class TestConvTranspose2d:
    def test_output_shape(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 5, 5)))
        w = Tensor(rng.normal(size=(4, 2, 4, 4)))
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 2, 10, 10)

    def test_inverts_conv_shape(self, rng):
        """deconv(stride s) maps the conv(stride s) output shape back."""
        x = Tensor(rng.normal(size=(1, 1, 16, 16)))
        w_down = Tensor(rng.normal(size=(3, 1, 3, 3)))
        down = F.conv2d(x, w_down, stride=2, padding=1)
        w_up = Tensor(rng.normal(size=(3, 1, 4, 4)))
        up = F.conv_transpose2d(down, w_up, stride=2, padding=1)
        assert up.shape == (1, 1, 16, 16)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv_transpose2d(Tensor(np.zeros((1, 2, 4, 4))),
                               Tensor(np.zeros((3, 1, 3, 3))))

    def test_gradients_against_numeric(self, rng):
        x_data = rng.normal(size=(2, 2, 4, 4))
        w_data = rng.normal(size=(2, 3, 3, 3))
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        (F.conv_transpose2d(x, w, stride=2, padding=1,
                            output_padding=1) ** 2).sum().backward()

        def objective():
            out = F.conv_transpose2d(Tensor(x_data), Tensor(w_data), stride=2,
                                     padding=1, output_padding=1)
            return float((out.data ** 2).sum())

        np.testing.assert_allclose(x.grad, numeric_gradient(objective, x_data),
                                   rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(w.grad, numeric_gradient(objective, w_data),
                                   rtol=1e-4, atol=1e-7)

    def test_adjointness_with_conv(self, rng):
        """conv_transpose(w) is the adjoint of conv(w) (same layout)."""
        x = rng.normal(size=(1, 2, 8, 8))
        y = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        conv_out = F.conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
        # Transposed conv expects (in=3, out=2) layout = same array here.
        deconv_out = F.conv_transpose2d(Tensor(y), Tensor(w), stride=2,
                                        padding=1, output_padding=1).data
        lhs = float((conv_out * y).sum())
        rhs = float((x * deconv_out).sum())
        assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-9


class TestPooling:
    def test_upsample_nearest(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2),
                   requires_grad=True)
        out = F.upsample_nearest2d(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out.data[0, 0, :2, :2], 1.0)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 2, 2), 4.0))


def _unfused_batch_norm(x, gamma, beta, running_mean, running_var, training,
                        grad, negative_slope=None, momentum=0.1, eps=1e-5):
    """Reference: batch-norm, then ``Tensor.relu`` / ``Tensor.leaky_relu``
    as separate steps.  Returns the output and the x, gamma and beta
    gradients of ``grad``; running statistics are updated in place."""
    axes, shape = ((0, 2, 3), (1, -1, 1, 1)) if x.ndim == 4 else ((0,), (1, -1))
    count = x.size // x.shape[1]
    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        unbiased = var * count / max(count - 1, 1)
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    out = gamma.reshape(shape) * x_hat + beta.reshape(shape)
    if negative_slope == 0.0:  # Tensor.relu
        mask = out > 0
        out, grad = out * mask, grad * mask
    elif negative_slope is not None:  # Tensor.leaky_relu
        scale = np.where(out > 0, 1.0, negative_slope).astype(out.dtype,
                                                              copy=False)
        out, grad = out * scale, grad * scale
    g = gamma.reshape(shape)
    grad_gamma = (grad * x_hat).sum(axis=axes)
    grad_beta = grad.sum(axis=axes)
    if training:
        gx_hat = grad * g
        grad_x = (gx_hat
                  - gx_hat.mean(axis=axes, keepdims=True)
                  - x_hat * (gx_hat * x_hat).mean(axis=axes, keepdims=True)
                  ) * inv_std.reshape(shape)
    else:
        grad_x = grad * g * inv_std.reshape(shape)
    return out, grad_x, grad_gamma, grad_beta


def _assert_close(actual, expected, tol):
    """Worst deviation within ``tol`` of the expected array's largest
    magnitude, in the expected dtype."""
    assert actual.dtype == expected.dtype
    scale = float(np.max(np.abs(expected)))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=tol * scale)


class TestBatchNorm:
    def test_normalizes_in_training(self, rng):
        x = Tensor(rng.normal(3.0, 2.0, size=(8, 4, 5, 5)))
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        rm, rv = np.zeros(4), np.ones(4)
        out = F.batch_norm(x, gamma, beta, rm, rv, training=True)
        assert abs(out.data.mean()) < 1e-10
        assert abs(out.data.std() - 1.0) < 1e-2

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.normal(5.0, 1.0, size=(16, 2, 4, 4)))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        rm, rv = np.zeros(2), np.ones(2)
        F.batch_norm(x, gamma, beta, rm, rv, training=True, momentum=1.0)
        np.testing.assert_allclose(rm, x.data.mean(axis=(0, 2, 3)), rtol=1e-10)

    def test_eval_uses_running_stats(self):
        x = Tensor(np.full((2, 1, 2, 2), 10.0))
        gamma, beta = Tensor(np.ones(1)), Tensor(np.zeros(1))
        rm, rv = np.array([10.0]), np.array([4.0])
        out = F.batch_norm(x, gamma, beta, rm, rv, training=False)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_2d_input(self, rng):
        x = Tensor(rng.normal(size=(10, 3)))
        gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))
        out = F.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3),
                           training=True)
        assert out.shape == (10, 3)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            F.batch_norm(Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)), np.zeros(3), np.ones(3), True)

    def test_input_gradient_numeric(self, rng):
        x_data = rng.normal(size=(4, 2, 3, 3))
        gamma_data = rng.random(2) + 0.5
        beta_data = rng.normal(size=2)

        x = Tensor(x_data, requires_grad=True)
        gamma = Tensor(gamma_data, requires_grad=True)
        beta = Tensor(beta_data, requires_grad=True)
        out = F.batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), True)
        (out ** 2).sum().backward()

        def objective():
            o = F.batch_norm(Tensor(x_data), Tensor(gamma_data),
                             Tensor(beta_data), np.zeros(2), np.ones(2), True)
            return float((o.data ** 2).sum())

        np.testing.assert_allclose(x.grad,
                                   numeric_gradient(objective, x_data, 1e-5),
                                   rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(gamma.grad,
                                   numeric_gradient(objective, gamma_data, 1e-5),
                                   rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(beta.grad,
                                   numeric_gradient(objective, beta_data, 1e-5),
                                   rtol=1e-4, atol=1e-6)

    # Tolerances from the dtype: the fused node sums in another order,
    # which moves results by a few ulps of the array's scale.
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12),
                                            (np.float32, 1e-5)])
    @pytest.mark.parametrize("negative_slope", [None, 0.0, 0.2])
    @pytest.mark.parametrize("shape", [(4, 3, 6, 5), (10, 3)])
    @pytest.mark.parametrize("training", [True, False])
    def test_matches_unfused_formula(self, rng, dtype, tol, negative_slope,
                                     shape, training):
        x_data = rng.normal(3.0, 2.0, size=shape).astype(dtype)
        grad = rng.normal(size=shape).astype(dtype)
        bn = (nn.BatchNorm2d if len(shape) == 4 else nn.BatchNorm1d)(
            shape[1], negative_slope=negative_slope)
        bn.gamma.data = (rng.random(shape[1]) + 0.5).astype(dtype)
        bn.beta.data = rng.normal(size=shape[1]).astype(dtype)
        bn.running_mean[...] = rng.normal(3.0, 1.0, size=shape[1])
        bn.running_var[...] = rng.random(shape[1]) + 2.0
        nn.to_dtype(bn, dtype)
        bn.train(training)
        stats = bn.running_mean.copy(), bn.running_var.copy()

        x = Tensor(x_data, requires_grad=True)
        out = bn(x)
        out.backward(grad)
        expected = _unfused_batch_norm(
            x_data, bn.gamma.data, bn.beta.data, *stats, training, grad,
            negative_slope)

        for actual, wanted in zip(
                (out.data, x.grad, bn.gamma.grad, bn.beta.grad), expected):
            _assert_close(actual, wanted, tol)
        for actual, wanted in zip((bn.running_mean, bn.running_var), stats):
            _assert_close(actual, wanted, tol)

    @pytest.mark.parametrize("negative_slope", [0.0, 0.2])
    def test_gradients_through_activation_numeric(self, rng, negative_slope):
        x_data = rng.normal(size=(3, 2, 4, 4))
        gamma_data = rng.random(2) + 0.5
        beta_data = rng.normal(size=2)
        weights = rng.normal(size=x_data.shape)

        def run(x, gamma, beta):
            return F.batch_norm(x, gamma, beta, np.zeros(2), np.ones(2),
                                True, negative_slope=negative_slope)

        x = Tensor(x_data, requires_grad=True)
        gamma = Tensor(gamma_data, requires_grad=True)
        beta = Tensor(beta_data, requires_grad=True)
        out = run(x, gamma, beta)
        # Both sides of the rectifier are exercised.
        assert (out.data > 0).any() and (out.data <= 0).any()
        (out * Tensor(weights)).sum().backward()

        def objective():
            o = run(Tensor(x_data), Tensor(gamma_data), Tensor(beta_data))
            return float((o.data * weights).sum())

        for param, data in ((x, x_data), (gamma, gamma_data),
                            (beta, beta_data)):
            np.testing.assert_allclose(
                param.grad, numeric_gradient(objective, data, 1e-6),
                rtol=1e-6, atol=1e-8)

    def test_rejects_slope_outside_unit_interval(self):
        with pytest.raises(ValueError):
            F.batch_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)), np.zeros(3), np.ones(3), True,
                         negative_slope=1.5)

    def test_block_state_dict_keys_unchanged(self):
        """The activations fused into batch-norm were parameterless
        modules after it, so every block keeps its keys."""
        rng = np.random.default_rng(0)
        bn = ["gamma", "beta", "running_mean", "running_var"]
        conv = ["weight", "bias"]

        def keys(prefix, names):
            return [f"{prefix}.{name}" for name in names]

        generator = MaskGenerator((4, 8), rng=rng)
        assert sorted(generator.state_dict()) == sorted(
            keys("encoder.0.0", conv) + keys("encoder.0.1", bn)
            + keys("encoder.1.0", conv) + keys("encoder.1.1", bn)
            + keys("decoder.0.0", conv) + keys("decoder.0.1", bn)
            + keys("decoder.1.0", conv) + keys("decoder.1.2", conv))
        discriminator = PairDiscriminator(16, (4, 8), rng=rng)
        assert sorted(discriminator.state_dict()) == sorted(
            keys("trunk.features.0.0", conv) + keys("trunk.features.0.1", bn)
            + keys("trunk.features.1.0", conv) + keys("trunk.features.1.1", bn)
            + keys("trunk.classifier", conv))
        unet = UNetMaskGenerator((4, 8), rng=rng)
        assert sorted(unet.state_dict()) == sorted(
            keys("downs.0.body.0", conv) + keys("downs.0.body.1", bn)
            + keys("downs.1.body.0", conv) + keys("downs.1.body.1", bn)
            + keys("ups.0.up", conv) + keys("ups.0.fuse.0", conv)
            + keys("ups.0.fuse.1", bn) + keys("head.0", conv)
            + keys("head.2", conv))



class TestLosses:
    def test_mse_reductions(self):
        p = Tensor([1.0, 3.0])
        t = Tensor([0.0, 0.0])
        assert float(F.mse_loss(p, t, "sum").data) == 10.0
        assert float(F.mse_loss(p, t, "mean").data) == 5.0
        assert F.mse_loss(p, t, "none").shape == (2,)
        with pytest.raises(ValueError):
            F.mse_loss(p, t, "bogus")

    def test_mse_sum_is_squared_l2(self, rng):
        a = rng.random((4, 4))
        b = rng.random((4, 4))
        loss = F.mse_loss(Tensor(a), Tensor(b), "sum")
        np.testing.assert_allclose(float(loss.data), ((a - b) ** 2).sum())

    def test_l1(self):
        loss = F.l1_loss(Tensor([2.0, -1.0]), Tensor([0.0, 0.0]), "sum")
        assert float(loss.data) == 3.0

    def test_bce_matches_formula(self):
        p = Tensor([0.8])
        t = Tensor([1.0])
        np.testing.assert_allclose(float(F.bce_loss(p, t).data),
                                   -np.log(0.8), rtol=1e-9)

    def test_bce_saturated_is_finite(self):
        loss = F.bce_loss(Tensor([0.0, 1.0]), Tensor([1.0, 0.0]))
        assert np.isfinite(float(loss.data))

    def test_bce_with_logits_matches_bce(self, rng):
        z = rng.normal(size=(6,))
        t = (rng.random(6) > 0.5).astype(float)
        direct = F.bce_with_logits(Tensor(z), Tensor(t))
        via_sigmoid = F.bce_loss(Tensor(z).sigmoid(), Tensor(t))
        np.testing.assert_allclose(float(direct.data),
                                   float(via_sigmoid.data), rtol=1e-6)

    def test_bce_with_logits_stable_at_extremes(self):
        loss = F.bce_with_logits(Tensor([100.0, -100.0]), Tensor([0.0, 1.0]))
        assert np.isfinite(float(loss.data))

    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        out = F.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(3), rtol=1e-10)

    def test_linear(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2,)))
        out = F.linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data)
