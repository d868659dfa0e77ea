"""Property-based tests for the autograd engine (hypothesis).

These check algebraic identities that must hold for *any* input, not
just hand-picked cases: linearity of the backward pass, the chain rule
through random op pipelines, and agreement with numerical
differentiation on randomly-shaped tensors.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.tensor import Tensor

from ..conftest import numeric_gradient


def small_arrays(min_side=1, max_side=4):
    shapes = st.tuples(st.integers(min_side, max_side),
                       st.integers(min_side, max_side))
    return shapes.flatmap(
        lambda shape: hnp.arrays(np.float64, shape,
                                 elements=st.floats(-3, 3, width=32)))


class TestAlgebraicIdentities:
    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_sum_gradient_is_ones(self, data):
        t = Tensor(data.copy(), requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones_like(data))

    @given(small_arrays(), st.floats(-2, 2))
    @settings(max_examples=40, deadline=None)
    def test_backward_linear_in_upstream(self, data, scale):
        """backward(c * g) accumulates c * backward(g)."""
        a = Tensor(data.copy(), requires_grad=True)
        out = a * a
        out.backward(np.ones_like(data))
        base = a.grad.copy()

        b = Tensor(data.copy(), requires_grad=True)
        out2 = b * b
        out2.backward(scale * np.ones_like(data))
        np.testing.assert_allclose(b.grad, scale * base, rtol=1e-9,
                                   atol=1e-12)

    @given(small_arrays())
    @settings(max_examples=40, deadline=None)
    def test_add_gradient_splits(self, data):
        a = Tensor(data.copy(), requires_grad=True)
        b = Tensor(data.copy(), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, b.grad)

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_sigmoid_gradient_bounded(self, data):
        """sigmoid' = s(1-s) is bounded by 1/4."""
        t = Tensor(data.copy(), requires_grad=True)
        t.sigmoid().sum().backward()
        assert np.all(np.abs(t.grad) <= 0.25 + 1e-12)

    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_detach_blocks_everything(self, data):
        t = Tensor(data.copy(), requires_grad=True)
        (t.detach() * 3.0).sum().backward()
        assert t.grad is None


class TestNumericAgreement:
    @given(small_arrays(min_side=2, max_side=3))
    @settings(max_examples=15, deadline=None)
    def test_random_pipeline_matches_numeric(self, data):
        """sigmoid -> * -> sum pipeline agrees with finite differences."""
        a = Tensor(data.copy(), requires_grad=True)
        ((a.sigmoid() * a).sum()).backward()

        def objective():
            x = Tensor(data)
            return float((x.sigmoid() * x).data.sum())

        numeric = numeric_gradient(objective, data, eps=1e-6)
        np.testing.assert_allclose(a.grad, numeric, rtol=1e-4, atol=1e-6)

    @given(small_arrays(min_side=2, max_side=3),
           small_arrays(min_side=2, max_side=3))
    @settings(max_examples=15, deadline=None)
    def test_broadcast_mul_matches_numeric(self, a_data, b_row):
        b_data = b_row[:1]  # (1, k) row to broadcast over a's rows
        if a_data.shape[1] != b_data.shape[1]:
            width = min(a_data.shape[1], b_data.shape[1])
            a_data = a_data[:, :width]
            b_data = b_data[:, :width]
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        ((a * b) ** 2).sum().backward()

        def objective():
            return float(((a_data * b_data) ** 2).sum())

        np.testing.assert_allclose(
            b.grad, numeric_gradient(objective, b_data), rtol=1e-4,
            atol=1e-6)
