"""Convolution lowering economics: what the forward caches for backward.

The forward splits its fine operand into phase planes once and, when
that operand has fewer channels than the result, gathers the planes'
tap slices into one ``(taps * C, L)`` column stack.  The backward must
reuse what the forward cached for the weight gradient instead of
splitting or gathering the input again.  Inference mode runs the same
code with the closure dropped: there is no workspace arena and no
separate inference lowering.
"""

import numpy as np

from repro.nn import functional as F
from repro.nn import no_grad
from repro.nn.tensor import Tensor


def _counting(monkeypatch, name):
    calls = []
    original = getattr(F, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(F, name, wrapper)
    return calls


class TestColumnCaching:
    def test_conv2d_backward_reuses_forward_columns(self, monkeypatch, rng):
        splits = _counting(monkeypatch, "_fine_operand")
        gathers = _counting(monkeypatch, "_gather")
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        out = F.conv2d(x, w, stride=1, padding=1)
        # 3 input channels < 4 output channels: the input is gathered.
        assert (len(splits), len(gathers)) == (1, 1)
        (out ** 2).sum().backward()
        # The weight gradient contracts the cached stack, and the input
        # gradient (4 channels in, 3 out) needs no gather: no re-lowering.
        assert (len(splits), len(gathers)) == (1, 1)

    def test_conv_transpose2d_backward_gathers_once(self, monkeypatch, rng):
        splits = _counting(monkeypatch, "_fine_operand")
        gathers = _counting(monkeypatch, "_gather")
        x = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        # 4 input channels >= 3 output channels: tap by tap, no gather.
        assert (len(splits), len(gathers)) == (0, 0)
        (out ** 2).sum().backward()
        # One split and one gather of the incoming gradient serve both
        # the input and the weight gradient.
        assert (len(splits), len(gathers)) == (1, 1)

    def test_backward_matches_einsum_reference(self, rng):
        """The batched-matmul backward is the same math as the obvious
        einsum contraction over 3x3 windows of the padded arrays."""
        x_data = rng.normal(size=(3, 2, 6, 6))
        w_data = rng.normal(size=(5, 2, 3, 3))
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        out = F.conv2d(x, w, stride=1, padding=1)
        grad_out = rng.normal(size=out.shape)
        out.backward(grad_out)

        def windows(a):
            padded = np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1)))
            return np.lib.stride_tricks.sliding_window_view(
                padded, (3, 3), axis=(2, 3))

        ref_w = np.einsum("nfyx,ncyxij->fcij", grad_out, windows(x_data))
        np.testing.assert_allclose(w.grad, ref_w, rtol=1e-10, atol=1e-12)
        # The input gradient correlates the gradient with the flipped kernel.
        ref_x = np.einsum("nfyxij,fcij->ncyx", windows(grad_out),
                          w_data[:, :, ::-1, ::-1])
        np.testing.assert_allclose(x.grad, ref_x, rtol=1e-10, atol=1e-12)


class TestInferenceWorkspace:
    def test_no_workspace_arena(self):
        assert not hasattr(F, "_WORKSPACE")

    def test_eval_and_grad_results_identical(self, rng):
        x_data = rng.normal(size=(2, 3, 8, 8))
        w_data = rng.normal(size=(4, 3, 3, 3))
        with no_grad():
            eval_out = F.conv2d(Tensor(x_data), Tensor(w_data), padding=1)
            eval_out2 = F.conv2d(Tensor(2.0 * x_data), Tensor(w_data),
                                 padding=1)
        grad_out = F.conv2d(Tensor(x_data, requires_grad=True),
                            Tensor(w_data, requires_grad=True), padding=1)
        np.testing.assert_array_equal(eval_out.data, grad_out.data)
        np.testing.assert_array_equal(eval_out2.data, 2.0 * grad_out.data)
