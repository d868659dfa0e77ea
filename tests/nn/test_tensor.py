"""Unit tests for the autograd Tensor core."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor, _unbroadcast

from ..conftest import numeric_gradient


class TestBasics:
    def test_construction_defaults_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype in (np.float32, np.float64)
        assert t.shape == (3,)

    def test_requires_grad_flag(self):
        assert not Tensor([1.0]).requires_grad
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_detach_cuts_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = (a * 3.0).detach()
        c = (b * 2.0).sum()
        c.backward()
        assert a.grad is None

    def test_item_and_len(self):
        assert Tensor([[5.0]]).item() == 5.0
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_backward_requires_scalar_without_grad(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2.0).backward()

    def test_backward_rejects_wrong_shape_gradient(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = t * 2.0
        with pytest.raises(ValueError):
            out.backward(np.ones((3, 3)))

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * t).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


class TestArithmeticGradients:
    @pytest.mark.parametrize("op", [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / b,
    ])
    def test_binary_ops(self, op, rng):
        a_data = rng.normal(size=(3, 4)) + 3.0
        b_data = rng.normal(size=(3, 4)) + 3.0
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (op(a, b) ** 2).sum().backward()

        num_a = numeric_gradient(
            lambda: float((op(Tensor(a_data), Tensor(b_data)).data ** 2).sum()),
            a_data)
        num_b = numeric_gradient(
            lambda: float((op(Tensor(a_data), Tensor(b_data)).data ** 2).sum()),
            b_data)
        np.testing.assert_allclose(a.grad, num_a, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(b.grad, num_b, rtol=1e-5, atol=1e-7)

    def test_broadcasting_backward(self, rng):
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4,))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        ((a + b) * 2.0).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, 6.0))

    def test_scalar_coercion(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (3.0 * a + 1.0 - a / 2.0).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [2.5, 2.5])

    def test_rsub_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        (1.0 - a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0])
        a.zero_grad()
        (1.0 / a).sum().backward()
        np.testing.assert_allclose(a.grad, [-0.25])

    def test_neg_and_pow(self, rng):
        data = rng.random((5,)) + 0.5
        a = Tensor(data, requires_grad=True)
        ((-a) ** 3).sum().backward()
        np.testing.assert_allclose(a.grad, -3.0 * data ** 2, rtol=1e-10)

    def test_matmul_2d(self, rng):
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b_data.T)
        np.testing.assert_allclose(b.grad, a_data.T @ np.ones((3, 2)))

    def test_matmul_batched(self, rng):
        a_data = rng.normal(size=(2, 3, 4))
        b_data = rng.normal(size=(2, 4, 5))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        ((a @ b) ** 2).sum().backward()
        num = numeric_gradient(
            lambda: float(((a_data @ b_data) ** 2).sum()), a_data)
        np.testing.assert_allclose(a.grad, num, rtol=1e-5, atol=1e-7)

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a + a * 3.0).sum().backward()
        # d/da (a^2 + 3a) = 2a + 3 = 7
        np.testing.assert_allclose(a.grad, [7.0])

    def test_diamond_graph(self):
        # a feeds two paths that rejoin: gradient must sum once per path.
        a = Tensor([1.0], requires_grad=True)
        b = a * 2.0
        c = a * 3.0
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0])


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self, rng):
        data = rng.normal(size=(2, 6))
        a = Tensor(data, requires_grad=True)
        (a.reshape(3, 4) ** 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2.0 * data)

    def test_flatten(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        out = a.flatten(start_dim=1)
        assert out.shape == (2, 12)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)

    def test_transpose_gradient(self, rng):
        data = rng.normal(size=(2, 3, 4))
        a = Tensor(data, requires_grad=True)
        (a.transpose(2, 0, 1) ** 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2.0 * data)

    def test_t_property(self):
        a = Tensor(np.ones((2, 5)))
        assert a.T.shape == (5, 2)

    def test_getitem_gradient(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a[2:5].sum().backward()
        np.testing.assert_allclose(a.grad, [0, 0, 1, 1, 1, 0])


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        data = rng.normal(size=(3, 4))
        a = Tensor(data, requires_grad=True)
        out = a.sum(axis=0, keepdims=True)
        assert out.shape == (1, 4)
        (out ** 2).sum().backward()
        expected = 2.0 * np.broadcast_to(data.sum(axis=0, keepdims=True), (3, 4))
        np.testing.assert_allclose(a.grad, expected)

    def test_mean_gradient(self):
        a = Tensor(np.ones((2, 5)), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 5), 0.1))

    def test_mean_tuple_axis(self):
        a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = a.mean(axis=(1, 2))
        assert out.shape == (2,)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 1.0 / 12))

    def test_max_gradient_goes_to_argmax(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0, 1, 0])

    def test_max_axis(self):
        a = Tensor([[1.0, 2.0], [4.0, 3.0]], requires_grad=True)
        out = a.max(axis=1)
        np.testing.assert_allclose(out.data, [2.0, 4.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [1, 0]])


class TestNonlinearities:
    @pytest.mark.parametrize("name", ["log", "sqrt", "sigmoid", "relu"])
    def test_against_numeric(self, name, rng):
        data = rng.random((8,)) + 0.5  # positive, away from kinks
        a = Tensor(data.copy(), requires_grad=True)
        getattr(a, name)().sum().backward()
        num = numeric_gradient(
            lambda: float(getattr(Tensor(data), name)().data.sum()), data)
        np.testing.assert_allclose(a.grad, num, rtol=1e-5, atol=1e-7)

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor([-1000.0, 1000.0])
        out = a.sigmoid().data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_leaky_relu(self):
        a = Tensor([-2.0, 3.0], requires_grad=True)
        a.leaky_relu(0.1).sum().backward()
        np.testing.assert_allclose(a.grad, [0.1, 1.0])

    def test_clip_gradient_masks_outside(self):
        a = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        a.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0, 1, 0])

    def test_relu_zero_at_negative(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])


class TestGraphOps:
    def test_concatenate_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = nn.concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))

    def test_stack(self):
        a = Tensor(np.ones((3,)), requires_grad=True)
        b = Tensor(np.zeros((3,)), requires_grad=True)
        out = nn.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))

    def test_where(self):
        cond = np.array([True, False, True])
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
        nn.where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 0, 1])
        np.testing.assert_allclose(b.grad, [0, 1, 0])

    def test_maximum(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([2.0, 3.0], requires_grad=True)
        nn.maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0, 1])
        np.testing.assert_allclose(b.grad, [1, 0])

class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with nn.no_grad():
            out = a * 2.0
        assert not out.requires_grad
        assert (a * 2.0).requires_grad

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with nn.no_grad():
                raise RuntimeError("boom")
        assert (Tensor([1.0], requires_grad=True) * 2.0).requires_grad


class TestUnbroadcast:
    def test_noop_when_same_shape(self):
        g = np.ones((2, 3))
        assert _unbroadcast(g, (2, 3)) is g

    def test_sums_leading_axes(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (2, 3)), np.full((2, 3), 4.0))

    def test_sums_size_one_axes(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (2, 1)), np.full((2, 1), 3.0))

    def test_scalar_target(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(_unbroadcast(g, ()), 6.0)
