"""The phase-split tap-GEMM convolution core against a direct reference.

The reference is the definition, one einsum per kernel tap on strided
views of the padded input (conv) or of the uncropped output (deconv),
with the backward products written out by hand.  The core must match it
on a grid of geometries — kernel 1-5, stride 1-3, padding 0-2,
output padding 0-1, non-square inputs, 1/2/8 channels either side —
in the forward pass and all three gradients, at 1e-12 relative.  A batch
that spans several cache-sized chunks must equal its samples evaluated
one at a time, bit for bit.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.obs.profiler import Profiler

RTOL = 1e-12
CHANNELS = (1, 2, 8)
IN_SHAPE = (6, 5)


def _conv_reference(x, w, b, stride, padding, grad):
    """Forward and ``(grad_x, grad_w, grad_b)`` of conv2d by definition."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, f, oh, ow))
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(w)
    for i, j in itertools.product(range(kh), range(kw)):
        window = (slice(None), slice(None),
                  slice(i, i + stride * oh, stride),
                  slice(j, j + stride * ow, stride))
        out += np.einsum("fc,ncyx->nfyx", w[:, :, i, j], xp[window])
        grad_xp[window] += np.einsum("fc,nfyx->ncyx", w[:, :, i, j], grad)
        grad_w[:, :, i, j] = np.einsum("nfyx,ncyx->fc", grad, xp[window])
    out += b.reshape(1, f, 1, 1)
    grad_x = grad_xp[:, :, padding:padding + h, padding:padding + wd]
    return out, (grad_x, grad_w, grad.sum(axis=(0, 2, 3)))


def _deconv_reference(x, w, b, stride, padding, output_padding, grad):
    """Forward and ``(grad_x, grad_w, grad_b)`` of conv_transpose2d by
    definition: scatter every input pixel through the kernel into an
    uncropped output, then crop ``padding`` from each side."""
    n, c, h, wd = x.shape
    _, f, kh, kw = w.shape
    full = ((h - 1) * stride + kh + output_padding,
            (wd - 1) * stride + kw + output_padding)
    oh, ow = full[0] - 2 * padding, full[1] - 2 * padding
    out_full = np.zeros((n, f) + full)
    grad_full = np.zeros((n, f) + full)
    grad_full[:, :, padding:padding + oh, padding:padding + ow] = grad
    grad_x = np.zeros_like(x)
    grad_w = np.zeros_like(w)
    for i, j in itertools.product(range(kh), range(kw)):
        window = (slice(None), slice(None),
                  slice(i, i + stride * h, stride),
                  slice(j, j + stride * wd, stride))
        out_full[window] += np.einsum("cf,nchw->nfhw", w[:, :, i, j], x)
        grad_x += np.einsum("cf,nfhw->nchw", w[:, :, i, j], grad_full[window])
        grad_w[:, :, i, j] = np.einsum("nchw,nfhw->cf", x, grad_full[window])
    out = out_full[:, :, padding:padding + oh, padding:padding + ow]
    out = out + b.reshape(1, f, 1, 1)
    return out, (grad_x, grad_w, grad.sum(axis=(0, 2, 3)))


def _run(op, x_data, w_data, b_data, grad_fn, **geometry):
    """Forward in eval and grad mode, then backward; returns
    ``(eval_out, out, (grad_x, grad_w, grad_b), upstream)``."""
    with nn.no_grad():
        eval_out = op(nn.Tensor(x_data), nn.Tensor(w_data),
                      nn.Tensor(b_data), **geometry).data
    x = nn.Tensor(x_data, requires_grad=True)
    w = nn.Tensor(w_data, requires_grad=True)
    b = nn.Tensor(b_data, requires_grad=True)
    out = op(x, w, b, **geometry)
    upstream = grad_fn(out.shape)
    out.backward(upstream)
    return eval_out, out.data, (x.grad, w.grad, b.grad), upstream


def _assert_close(actual, expected, what):
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    np.testing.assert_allclose(actual, expected, rtol=RTOL,
                               atol=RTOL * scale, err_msg=what)


@pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("stride", [1, 2, 3])
class TestGeometryGrid:
    def test_conv2d_matches_reference(self, kernel, stride):
        rng = np.random.default_rng(kernel * 10 + stride)
        for padding, c, f in itertools.product((0, 1, 2), CHANNELS,
                                               CHANNELS):
            x = rng.normal(size=(2, c) + IN_SHAPE)
            w = rng.normal(size=(f, c, kernel, kernel))
            b = rng.normal(size=f)
            eval_out, out, grads, upstream = _run(
                F.conv2d, x, w, b, lambda shape: rng.normal(size=shape),
                stride=stride, padding=padding)
            ref_out, ref_grads = _conv_reference(x, w, b, stride, padding,
                                                 upstream)
            case = f"k{kernel} s{stride} p{padding} c{c} f{f}"
            _assert_close(out, ref_out, f"forward {case}")
            for name, got, want in zip(("x", "w", "b"), grads, ref_grads):
                _assert_close(got, want, f"grad_{name} {case}")
            np.testing.assert_array_equal(eval_out, out, err_msg=case)

    def test_conv_transpose2d_matches_reference(self, kernel, stride):
        rng = np.random.default_rng(100 + kernel * 10 + stride)
        for padding, output_padding, c, f in itertools.product(
                (0, 1, 2), (0, 1), CHANNELS, CHANNELS):
            full = [(n - 1) * stride + kernel + output_padding
                    for n in IN_SHAPE]
            x = rng.normal(size=(2, c) + IN_SHAPE)
            w = rng.normal(size=(c, f, kernel, kernel))
            b = rng.normal(size=f)
            geometry = dict(stride=stride, padding=padding,
                            output_padding=output_padding)
            if min(full) <= 2 * padding:
                with pytest.raises(ValueError):
                    F.conv_transpose2d(nn.Tensor(x), nn.Tensor(w), **geometry)
                continue
            eval_out, out, grads, upstream = _run(
                F.conv_transpose2d, x, w, b,
                lambda shape: rng.normal(size=shape), **geometry)
            ref_out, ref_grads = _deconv_reference(
                x, w, b, stride, padding, output_padding, upstream)
            case = (f"k{kernel} s{stride} p{padding} op{output_padding} "
                    f"c{c} f{f}")
            _assert_close(out, ref_out, f"forward {case}")
            for name, got, want in zip(("x", "w", "b"), grads, ref_grads):
                _assert_close(got, want, f"grad_{name} {case}")
            np.testing.assert_array_equal(eval_out, out, err_msg=case)


class TestDtypeAndEdges:
    @pytest.mark.parametrize("op, wshape", [(F.conv2d, (8, 2, 3, 3)),
                                            (F.conv2d, (1, 8, 3, 3)),
                                            (F.conv_transpose2d, (2, 8, 4, 4)),
                                            (F.conv_transpose2d, (8, 8, 4, 4))])
    def test_f32_in_f32_out(self, op, wshape, rng):
        channels = wshape[1] if op is F.conv2d else wshape[0]
        x = nn.Tensor(rng.normal(size=(2, channels, 8, 6)).astype(np.float32),
                      requires_grad=True)
        w = nn.Tensor(rng.normal(size=wshape).astype(np.float32),
                      requires_grad=True)
        out_channels = wshape[0] if op is F.conv2d else wshape[1]
        b = nn.Tensor(np.zeros(out_channels, np.float32), requires_grad=True)
        out = op(x, w, b, stride=2, padding=1)
        out.backward(np.ones(out.shape, np.float32))
        assert out.dtype == np.float32
        assert x.grad.dtype == w.grad.dtype == b.grad.dtype == np.float32

    @pytest.mark.parametrize("op, wshape", [(F.conv2d, (3, 2, 3, 3)),
                                            (F.conv_transpose2d, (2, 3, 4, 4))])
    def test_empty_batch(self, op, wshape):
        x = nn.Tensor(np.zeros((0, 2, 8, 8)), requires_grad=True)
        w = nn.Tensor(np.ones(wshape), requires_grad=True)
        out = op(x, w, stride=2, padding=1)
        out.backward(np.zeros(out.shape))
        assert out.shape[0] == 0 and x.grad.shape == x.shape
        np.testing.assert_array_equal(w.grad, np.zeros(wshape))

    def test_empty_conv_output_raises(self):
        with pytest.raises(ValueError, match="empty"):
            F.conv2d(nn.Tensor(np.zeros((1, 1, 2, 2))),
                     nn.Tensor(np.zeros((1, 1, 5, 5))))

    def test_outputs_are_c_contiguous(self, rng):
        x = nn.Tensor(rng.normal(size=(2, 3, 9, 7)), requires_grad=True)
        w = nn.Tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True)
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        y = F.conv2d(out, nn.Tensor(rng.normal(size=(5, 2, 3, 3)),
                                    requires_grad=True), padding=1)
        y.backward(np.ones(y.shape))
        for array in (out.data, y.data, x.grad, w.grad):
            assert array.flags.c_contiguous


class TestInputGradientSkip:
    """An input that does not require grad gets no input-gradient
    product (the backward returns ``None`` for it); the weight and
    bias gradients do not change by a bit."""

    @pytest.mark.parametrize("op, wshape", [(F.conv2d, (8, 2, 3, 3)),
                                            (F.conv2d, (1, 8, 3, 3)),
                                            (F.conv_transpose2d, (8, 4, 4, 4))])
    def test_weight_grads_bit_identical(self, op, wshape, rng):
        channels = wshape[1] if op is F.conv2d else wshape[0]
        x_data = rng.normal(size=(2, channels, 12, 10))
        w_data = rng.normal(size=wshape)
        out_channels = wshape[0] if op is F.conv2d else wshape[1]
        b_data = rng.normal(size=out_channels)
        results = []
        for x_grad in (True, False):
            x = nn.Tensor(x_data, requires_grad=x_grad)
            w = nn.Tensor(w_data, requires_grad=True)
            b = nn.Tensor(b_data, requires_grad=True)
            out = op(x, w, b, stride=2, padding=1)
            out.backward(np.cos(np.arange(out.data.size)).reshape(out.shape))
            results.append((x.grad, w.grad, b.grad))
        (x_on, w_on, b_on), (x_off, w_off, b_off) = results
        assert x_on is not None and x_off is None
        np.testing.assert_array_equal(w_on, w_off)
        np.testing.assert_array_equal(b_on, b_off)

    def test_input_gradient_work_is_skipped(self, monkeypatch, rng):
        calls = []
        original = F._to_fine
        monkeypatch.setattr(F, "_to_fine",
                            lambda *a: calls.append(1) or original(*a))
        x = nn.Tensor(rng.normal(size=(2, 1, 16, 16)))
        w = nn.Tensor(rng.normal(size=(8, 1, 3, 3)), requires_grad=True)
        F.conv2d(x, w, stride=2, padding=1).sum().backward()
        assert calls == [] and x.grad is None and w.grad is not None


class TestAttribution:
    """Backward closures run the private core: one profiler row and one
    public call per forward, however many backward products follow."""

    def test_backward_never_calls_the_public_ops(self, monkeypatch, rng):
        x = nn.Tensor(rng.normal(size=(2, 4, 8, 8)), requires_grad=True)
        w = nn.Tensor(rng.normal(size=(4, 3, 4, 4)), requires_grad=True)
        v = nn.Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
        y = F.conv2d(F.conv_transpose2d(x, w, stride=2, padding=1), v,
                     padding=1)
        for name in ("conv2d", "conv_transpose2d"):
            monkeypatch.setattr(F, name, None)
        y.backward(np.ones(y.shape))
        assert x.grad is not None and w.grad is not None

    def test_one_profiler_row_per_forward(self, rng):
        x = nn.Tensor(rng.normal(size=(2, 4, 8, 8)), requires_grad=True)
        w = nn.Parameter(rng.normal(size=(4, 3, 4, 4)))
        v = nn.Parameter(rng.normal(size=(2, 3, 3, 3)))
        with Profiler() as prof:
            y = F.conv2d(F.conv_transpose2d(x, w, stride=2, padding=1), v,
                         padding=1)
            y.backward(np.ones(y.shape))
        stats = prof.op_stats()
        for name in ("conv2d", "deconv2d"):
            assert stats[name]["count"] == 1
            assert stats[name]["backward_count"] == 1


class TestBatchChunks:
    """Every direction walks the batch in chunks of whole samples.  A
    batch equals its samples evaluated alone, bit for bit: the output
    (in eval and grad mode), the input gradient, and the weight gradient
    as the in-order sum of the per-sample weight gradients.  All four
    outputs equal the batch evaluated as one chunk."""

    #: op, input and weight shapes, geometry, and the samples per chunk
    #: in f64 and f32 (phase planes of at most CHUNK_BYTES)
    CASES = {
        # the generator's 128 px tail: 8->8 deconv to 128 px, 8->1 conv
        "deconv8-128": (F.conv_transpose2d, (4, 8, 64, 64), (8, 8, 4, 4),
                        dict(stride=2, padding=1), ([1] * 4, [2, 2])),
        "conv8-1-128": (F.conv2d, (4, 8, 128, 128), (1, 8, 3, 3),
                        dict(padding=1), ([1] * 4, [2, 2])),
        # 64 px: several chunks, the last one ragged
        "deconv8-64": (F.conv_transpose2d, (10, 8, 32, 32), (8, 8, 4, 4),
                       dict(stride=2, padding=1), ([4, 4, 2], [8, 2])),
        "conv8-1-64": (F.conv2d, (10, 8, 64, 64), (1, 8, 3, 3),
                       dict(padding=1), ([4, 4, 2], [8, 2])),
    }

    @staticmethod
    def _forward_chunks(monkeypatch, op, x, w, geometry):
        """Samples per chunk of one no-grad forward."""
        sizes = []
        name = "_to_coarse" if op is F.conv2d else "_to_fine"
        original = getattr(F, name)
        monkeypatch.setattr(F, name, lambda operand, *rest: sizes.append(
            len(operand)) or original(operand, *rest))
        with nn.no_grad():
            op(nn.Tensor(x), nn.Tensor(w), **geometry)
        monkeypatch.setattr(F, name, original)
        return sizes

    @staticmethod
    def _evaluate(op, x, w, b, upstream, geometry):
        with nn.no_grad():
            eval_out = op(nn.Tensor(x), nn.Tensor(w), nn.Tensor(b),
                          **geometry).data
        xt, wt, bt = (nn.Tensor(a, requires_grad=True) for a in (x, w, b))
        out = op(xt, wt, bt, **geometry)
        out.backward(upstream)
        return eval_out, out.data, xt.grad, wt.grad, bt.grad

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batch_equals_samples(self, monkeypatch, case, dtype):
        op, x_shape, w_shape, geometry, chunks = self.CASES[case]
        rng = np.random.default_rng(len(case))
        x = rng.normal(size=x_shape).astype(dtype)
        w = rng.normal(size=w_shape).astype(dtype)
        channels = w_shape[0] if op is F.conv2d else w_shape[1]
        b = rng.normal(size=channels).astype(dtype)
        assert self._forward_chunks(monkeypatch, op, x, w, geometry) == \
            chunks[dtype is np.float32]
        with nn.no_grad():
            out = op(nn.Tensor(x), nn.Tensor(w), **geometry)
        upstream = rng.normal(size=out.shape).astype(dtype)

        batch = self._evaluate(op, x, w, b, upstream, geometry)
        samples = [self._evaluate(op, x[i:i + 1], w, b, upstream[i:i + 1],
                                  geometry) for i in range(len(x))]
        for index, name in enumerate(("eval output", "output",
                                      "input gradient")):
            np.testing.assert_array_equal(
                batch[index], np.concatenate([s[index] for s in samples]),
                err_msg=name)
        np.testing.assert_array_equal(batch[0], batch[1])
        weight_grad = samples[0][3].copy()
        for sample in samples[1:]:
            weight_grad += sample[3]
        np.testing.assert_array_equal(batch[3], weight_grad)

        monkeypatch.setattr(F, "CHUNK_BYTES", 1 << 40)
        assert self._forward_chunks(monkeypatch, op, x, w, geometry) == [
            len(x)]
        for got, want in zip(batch, self._evaluate(op, x, w, b, upstream,
                                                   geometry)):
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)


class TestMemory:
    def test_final_conv_peak_below_20mb(self):
        """Forward plus backward of the generator's final 8->1 3x3 conv
        at 128 px, batch 4, f64: the old im2col lowering peaked at
        76.8 MiB ((4, 72, 16384) columns, same-size gradient columns),
        the tap-GEMM core at 13.9 MiB on the whole batch and at 12.6 MiB
        in one-sample chunks."""
        rng = np.random.default_rng(0)
        x = nn.Tensor(rng.normal(size=(4, 8, 128, 128)), requires_grad=True)
        w = nn.Tensor(rng.normal(size=(1, 8, 3, 3)), requires_grad=True)
        b = nn.Tensor(np.zeros(1), requires_grad=True)
        upstream = rng.normal(size=(4, 1, 128, 128))
        tracemalloc.start()
        try:
            out = F.conv2d(x, w, b, padding=1)
            out.backward(upstream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape
        assert peak < 13.5 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
