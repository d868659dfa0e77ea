"""Neural-network functional operations for the ``repro.nn`` substrate.

Implements the convolutional primitives the GAN-OPC generator (stacked
conv encoder + deconv decoder, Figure 4 of the paper) and discriminator
are built from, with batch-norm, upsampling and the losses they train
with.

Both convolutions run on one phase-split tap-GEMM core (DESIGN.md §17).
A convolution relates a *fine* grid (conv input, deconv output) to a
*coarse* one (conv output, deconv input).  The padded fine grid is split
once into ``stride**2`` phase planes on flat rasters whose row width is
the coarse width plus the kernel's reach, so every kernel tap is one GEMM
on a contiguous flat-offset slice.  Conv forward and the deconv input
gradient read the tap table from fine to coarse; deconv forward and the
conv input gradient read it from coarse to fine; the weight gradient
contracts the fine operand the forward cached, tap by tap.  An operand
with fewer channels than the result is gathered into one
``(taps * C, L)`` stack first, so its side is a single GEMM.  Every
direction walks the batch in chunks of whole samples whose fine phase
planes fit in :data:`CHUNK_BYTES`, so the planes each tap re-reads stay
in cache.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from typing import Optional, Tuple, Union

import numpy as np

from repro.obs import profiler as _profiler
from repro.obs.profiler import conv2d_flops, conv_transpose2d_flops

from .tensor import Tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


# ----------------------------------------------------------------------
# Convolution core: phase planes and tap tables
# ----------------------------------------------------------------------
def _window(size: int, stride: int, pad: int, phase: int, count: int):
    """Rows of one phase plane that hold input pixels, as a
    ``(plane slice, input slice)`` pair, or ``None`` if there are none.

    Plane row ``u`` of phase ``phase`` is padded row ``u * stride +
    phase``, i.e. input row ``u * stride + phase - pad``.
    """
    first = max(0, -((phase - pad) // stride))
    last = min(count, (size - 1 + pad - phase) // stride + 1)
    if last <= first:
        return None
    start = first * stride + phase - pad
    return (slice(first, last),
            slice(start, start + (last - first - 1) * stride + 1, stride))


#: Bytes of fine phase planes per chunk.  Every direction of the core
#: walks the batch in chunks of whole samples whose fine phase planes
#: (the operand or result every tap re-reads) fit in this much, so they
#: stay in a core's L2 cache across the taps.  DESIGN.md §17 ("Cache
#: blocking") has the chunk-size sweep behind the value.
CHUNK_BYTES = 1152 << 10


class _Taps:
    """Tap tables of one convolution geometry on flat phase rasters.

    ``fine`` is the fine size ``(H, W)``, ``coarse`` the coarse size
    ``(OH, OW)``.  Tap ``(i, j)`` belongs to phase ``(i % sh, j % sw)``
    and reaches ``(i // sh, j // sw)`` coarse pixels into its plane.
    Every raster is flat per sample and channel, with row width
    ``width = OW + (KW - 1) // sw``:

    * a phase plane has ``rows = OH + (KH - 1) // sh`` rows, plus a
      ``(KW - 1) // sw`` tail so the last tap's slice stays in bounds
      (``plane_len`` values);
    * a coarse raster has ``OH`` rows (``span`` values) whose last
      ``width - OW`` columns are junk (results) or zero (operands);
    * the coarse operand of coarse → fine sits ``origin`` values into
      a zero frame of ``(KH - 1) // sh`` rows above and below and
      ``(KW - 1) // sw`` columns to the left (``framed_len`` values),
      which also absorbs reads past a row's end.

    Fine → coarse, tap ``t`` reads its plane ``ahead[t]`` values on;
    coarse → fine, it reads the framed raster ``behind[t] = origin -
    ahead[t]`` values on.  Taps are sorted by phase: phase ``s`` owns
    the contiguous range ``groups[s]``.

    A chunk holds ``chunk`` samples: the most whose fine phase planes,
    ``fine_channels`` planes per phase of ``itemsize``-byte values, fit
    in :data:`CHUNK_BYTES`, and at least one.
    """

    def __init__(self, fine: Tuple[int, int], coarse: Tuple[int, int],
                 kernel: Tuple[int, int], stride: Tuple[int, int],
                 padding: Tuple[int, int], fine_channels: int,
                 itemsize: int):
        (oh, ow), (kh, kw), (sh, sw) = coarse, kernel, stride
        reach_h, reach_w = (kh - 1) // sh, (kw - 1) // sw
        self.fine, self.coarse = fine, coarse
        self.phases = sh * sw
        self.rows = oh + reach_h
        self.width = width = ow + reach_w
        self.plane = self.rows * width
        self.plane_len = self.plane + reach_w
        self.span = oh * width
        self.origin = reach_h * width + reach_w
        self.framed_len = self.origin + self.plane

        taps = sorted(((i % sh) * sw + j % sw, i, j)
                      for i in range(kh) for j in range(kw))
        self.phase = [s for s, _, _ in taps]
        self.ki = [i for _, i, _ in taps]
        self.kj = [j for _, _, j in taps]
        self.ahead = [(i // sh) * width + j // sw for _, i, j in taps]
        self.behind = [self.origin - ahead for ahead in self.ahead]
        self.groups = [(bisect_left(self.phase, s),
                        bisect_right(self.phase, s))
                       for s in range(self.phases)]

        rows = [_window(fine[0], sh, padding[0], a, self.rows)
                for a in range(sh)]
        cols = [_window(fine[1], sw, padding[1], b, width)
                for b in range(sw)]
        #: (phase, plane rows, plane cols, fine rows, fine cols) of each
        #: phase that holds pixels
        self.windows = [(a * sw + b, rows[a][0], cols[b][0], rows[a][1],
                         cols[b][1])
                        for a in range(sh) for b in range(sw)
                        if rows[a] is not None and cols[b] is not None]
        #: whether the windows cover every fine pixel (a fine row or
        #: column past the last plane row or column has no tap)
        self.covers = all(
            sum(w[0].stop - w[0].start for w in axis if w) == size
            for axis, size in ((rows, fine[0]), (cols, fine[1])))
        self.chunk = max(1, CHUNK_BYTES // (
            self.phases * fine_channels * self.plane_len * itemsize))

    def parts(self, n: int):
        """Sample slices of the chunks of an ``n``-sample batch (one
        empty chunk for an empty batch)."""
        return [slice(i, i + self.chunk)
                for i in range(0, max(n, 1), self.chunk)]

    def fine_array(self, shape: Tuple[int, int], dtype) -> np.ndarray:
        """A ``shape + (H, W)`` fine-grid result for :func:`_to_fine` to
        fill: zeroed when some fine pixel has no tap."""
        return (np.empty if self.covers else np.zeros)(
            tuple(shape) + self.fine, dtype)


def _tap_weights(weight: np.ndarray, taps: _Taps) -> np.ndarray:
    """``(T, Cc, Cf)`` per-tap GEMM operands of a ``(Cc, Cf, KH, KW)``
    weight, in tap order."""
    return np.ascontiguousarray(
        weight[:, :, taps.ki, taps.kj].transpose(2, 0, 1))


def _gather(sources, offsets, length: int) -> np.ndarray:
    """Stack the flat slices ``source[..., off:off + length]`` of
    ``(N, C, *)`` sources into one ``(N, taps * C, length)`` operand."""
    n, c = sources[0].shape[:2]
    stack = np.empty((n, len(offsets) * c, length), sources[0].dtype)
    for t, (source, offset) in enumerate(zip(sources, offsets)):
        stack[:, t * c:(t + 1) * c] = source[..., offset:offset + length]
    return stack


def _accumulate(products) -> np.ndarray:
    """Sum of the GEMMs ``a @ b`` over ``(a, b)`` pairs; one scratch
    serves every product after the first."""
    total = scratch = None
    for a, b in products:
        if total is None:
            total = np.matmul(a, b)
        else:
            scratch = np.matmul(a, b, out=scratch)
            total += scratch
    return total


def _fine_operand(fine: np.ndarray, taps: _Taps, coarse_channels: int,
                  dtype) -> np.ndarray:
    """Phase planes ``(N, S, C, plane_len)`` of a fine ``(N, C, H, W)``
    array, or their ``(N, taps * C, span)`` gather when the coarse side
    has more channels."""
    n, c = fine.shape[:2]
    planes = np.zeros((n, taps.phases, c, taps.plane_len), dtype)
    grid = planes[..., :taps.plane].reshape(n, taps.phases, c, taps.rows,
                                            taps.width)
    for s, plane_rows, plane_cols, rows, cols in taps.windows:
        grid[:, s, :, plane_rows, plane_cols] = fine[:, :, rows, cols]
    if c >= coarse_channels:
        return planes
    return _gather([planes[:, s] for s in taps.phase], taps.ahead, taps.span)


def _coarse_operand(coarse: np.ndarray, taps: _Taps, dtype):
    """A coarse ``(N, C, OH, OW)`` array in its zero frame: returns the
    framed raster ``(N, C, framed_len)`` (coarse → fine operand) and its
    ``(N, C, span)`` coarse raster view with zero junk columns (the
    coarse side of the weight gradient)."""
    n, c, oh, ow = coarse.shape
    framed = np.zeros((n, c, taps.framed_len), dtype)
    raster = framed[..., taps.origin:taps.origin + taps.span]
    raster.reshape(n, c, oh, taps.width)[..., :ow] = coarse
    return framed, raster


def _to_coarse(operand: np.ndarray, tap_weights: np.ndarray,
               taps: _Taps) -> np.ndarray:
    """Fine → coarse: ``(N, Cc, OH, OW)`` view of the result raster."""
    t, cc, cf = tap_weights.shape
    if operand.ndim == 3:
        raster = np.matmul(
            tap_weights.transpose(1, 0, 2).reshape(cc, t * cf), operand)
    else:
        raster = _accumulate(
            (tap_weights[k], operand[:, s, :, off:off + taps.span])
            for k, (s, off) in enumerate(zip(taps.phase, taps.ahead)))
    oh, ow = taps.coarse
    return raster.reshape(-1, cc, oh, taps.width)[..., :ow]


def _to_fine(framed: np.ndarray, tap_weights: np.ndarray, taps: _Taps,
             out: np.ndarray) -> None:
    """Coarse → fine into ``out`` (from :meth:`_Taps.fine_array`): the
    framed coarse operand read through the tap table in the opposite
    direction, one phase plane at a time."""
    n = framed.shape[0]
    t, cc, cf = tap_weights.shape
    groups = [taps.groups[window[0]] for window in taps.windows]
    if cc < cf:
        # Every phase's GEMM runs before any is written out, so the
        # gather is freed first (it is the largest buffer here).
        stack = _gather([framed] * t, taps.behind, taps.plane)
        planes = [np.matmul(
            tap_weights[first:end].transpose(2, 0, 1).reshape(cf, -1),
            stack[:, first * cc:end * cc]) if first < end else None
            for first, end in groups]
        del stack
    else:
        planes = (_accumulate(
            (tap_weights[k].T,
             framed[..., taps.behind[k]:taps.behind[k] + taps.plane])
            for k in range(first, end)) for first, end in groups)
    for (_, plane_rows, plane_cols, rows, cols), plane in zip(taps.windows,
                                                              planes):
        # A phase without taps (kernel smaller than stride) stays zero.
        out[:, :, rows, cols] = 0 if plane is None else plane.reshape(
            n, cf, taps.rows, taps.width)[:, :, plane_rows, plane_cols]


def _weight_products(operand: np.ndarray, raster: np.ndarray,
                     taps: _Taps) -> np.ndarray:
    """One chunk's per-sample weight-gradient products ``(N, T, Cc, Cf)``:
    the coarse side ``raster`` ``(N, Cc, span)`` (zero junk columns)
    contracted per tap with the fine operand (gather or phase planes)."""
    n, cc = raster.shape[:2]
    t = len(taps.phase)
    if operand.ndim == 3:
        return np.matmul(raster, operand.transpose(0, 2, 1)).reshape(
            n, cc, t, operand.shape[1] // t).transpose(0, 2, 1, 3)
    return np.stack([
        np.matmul(raster, operand[:, s, :, off:off + taps.span]
                  .transpose(0, 2, 1))
        for s, off in zip(taps.phase, taps.ahead)], axis=1)


def _weight_grad(products, taps: _Taps,
                 shape: Tuple[int, int, int, int]) -> np.ndarray:
    """``(Cc, Cf, KH, KW)`` weight gradient from the chunks' products.

    One ``sum(axis=0)`` over the whole batch adds the samples in batch
    order, whatever the chunks, so chunking changes no bit of it;
    summing each chunk first would (DESIGN.md §17)."""
    per_tap = np.concatenate(products).sum(axis=0)
    grad = np.empty(shape, per_tap.dtype)
    grad[:, :, taps.ki, taps.kj] = per_tap.transpose(1, 2, 0)
    return grad


def _dtype(x: Tensor, weight: Tensor, bias: Optional[Tensor]):
    return np.result_type(x.data, weight.data,
                          *(() if bias is None else (bias.data,)))


def _dense(coarse: np.ndarray, bias: Optional[Tensor],
           out: np.ndarray) -> None:
    """Copy a ``(N, C, OH, OW)`` result view, plus bias, into ``out``."""
    if bias is None:
        out[...] = coarse
    else:
        np.add(coarse, bias.data.reshape(1, -1, 1, 1), out=out)


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: IntPair = 1, padding: IntPair = 0) -> Tensor:
    """2-D cross-correlation over NCHW input.

    ``weight`` has shape ``(out_channels, in_channels, KH, KW)``.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    f, c_w, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(f"input channels {c} != weight channels {c_w}")

    prof = _profiler.ACTIVE
    started = time.perf_counter() if prof is not None else 0.0
    oh = (h + 2 * padding[0] - kh) // stride[0] + 1
    ow = (w + 2 * padding[1] - kw) // stride[1] + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"convolution output would be empty: input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride[0]}x{stride[1]}, "
            f"padding {padding[0]}x{padding[1]}")
    dtype = _dtype(x, weight, bias)
    taps = _Taps((h, w), (oh, ow), (kh, kw), stride, padding, c,
                 dtype.itemsize)
    tap_weights = _tap_weights(weight.data, taps)
    x_grad, w_grad = x.requires_grad, weight.requires_grad
    b_grad = bias is not None and bias.requires_grad
    out = np.empty((n, f, oh, ow), dtype)
    # Each chunk's input phase planes, or their gather when the input
    # has fewer channels than the output; the weight gradient reads them.
    operands = []
    for part in taps.parts(n):
        operand = _fine_operand(x.data[part], taps, f, dtype)
        _dense(_to_coarse(operand, tap_weights, taps), bias, out[part])
        operands.append(operand if w_grad else None)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_dtype = np.result_type(grad, dtype)
        grad_x = taps.fine_array((n, c), grad_dtype) if x_grad else None
        products = []
        for part, operand in zip(taps.parts(n), operands):
            framed, raster = _coarse_operand(grad[part], taps, grad_dtype)
            if x_grad:
                _to_fine(framed, tap_weights, taps, grad_x[part])
            if w_grad:
                products.append(_weight_products(operand, raster, taps))
        grads = [grad_x, _weight_grad(products, taps, (f, c, kh, kw))
                 if w_grad else None]
        if bias is not None:
            grads.append(grad.sum(axis=(0, 2, 3)) if b_grad else None)
        return tuple(grads)

    if prof is not None:
        prof.record("conv2d", time.perf_counter() - started,
                    flops=conv2d_flops(n, c, f, oh, ow, kh, kw,
                                       bias=bias is not None),
                    nbytes=out.nbytes)
        backward = prof.wrap_backward("conv2d", backward)
    return Tensor._make(out, parents, backward)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
                     stride: IntPair = 1, padding: IntPair = 0,
                     output_padding: IntPair = 0) -> Tensor:
    """2-D transposed convolution (deconvolution).

    ``weight`` has shape ``(in_channels, out_channels, KH, KW)`` following
    the PyTorch convention; the forward pass of this op is the gradient of
    :func:`conv2d` with respect to its input, which is exactly the
    "decoder operates in an opposite way" architecture of the paper's
    generator (Section 3.1).
    """
    stride = _pair(stride)
    padding = _pair(padding)
    output_padding = _pair(output_padding)
    n, c, h, w = x.shape
    c_w, f, kh, kw = weight.shape
    if c != c_w:
        raise ValueError(f"input channels {c} != weight channels {c_w}")
    oh = (h - 1) * stride[0] - 2 * padding[0] + kh + output_padding[0]
    ow = (w - 1) * stride[1] - 2 * padding[1] + kw + output_padding[1]
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"transposed convolution output would be empty: input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {stride[0]}x{stride[1]}, "
            f"padding {padding[0]}x{padding[1]}")

    prof = _profiler.ACTIVE
    started = time.perf_counter() if prof is not None else 0.0
    # The deconv output is the fine side of the conv whose input
    # gradient this op is; its (in, out, KH, KW) weight is that conv's
    # (coarse, fine) weight as it stands.
    dtype = _dtype(x, weight, bias)
    taps = _Taps((oh, ow), (h, w), (kh, kw), stride, padding, f,
                 dtype.itemsize)
    tap_weights = _tap_weights(weight.data, taps)
    x_grad, w_grad = x.requires_grad, weight.requires_grad
    b_grad = bias is not None and bias.requires_grad
    out = taps.fine_array((n, f), dtype)
    # Each chunk's framed input; the weight gradient reads its raster view.
    rasters = []
    for part in taps.parts(n):
        framed, raster = _coarse_operand(x.data[part], taps, dtype)
        _to_fine(framed, tap_weights, taps, out[part])
        if bias is not None:
            out[part] += bias.data.reshape(1, f, 1, 1)
        rasters.append(raster if w_grad else None)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        grad_dtype = np.result_type(grad, dtype)
        grad_x = np.empty((n, c, h, w), grad_dtype) if x_grad else None
        products = []
        for part, raster in zip(taps.parts(n), rasters):
            operand = _fine_operand(grad[part], taps, c, grad_dtype)
            if x_grad:
                _dense(_to_coarse(operand, tap_weights, taps), None,
                       grad_x[part])
            if w_grad:
                products.append(_weight_products(operand, raster, taps))
        grads = [grad_x, _weight_grad(products, taps, (c, f, kh, kw))
                 if w_grad else None]
        if bias is not None:
            grads.append(grad.sum(axis=(0, 2, 3)) if b_grad else None)
        return tuple(grads)

    if prof is not None:
        prof.record("deconv2d", time.perf_counter() - started,
                    flops=conv_transpose2d_flops(n, c, h, w, f, kh, kw,
                                                 oh=oh, ow=ow,
                                                 bias=bias is not None),
                    nbytes=out.nbytes)
        backward = prof.wrap_backward("deconv2d", backward)
    return Tensor._make(out, parents, backward)


# ----------------------------------------------------------------------
# Linear
# ----------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with weight ``(out, in)``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# Upsampling
# ----------------------------------------------------------------------
def upsample_nearest2d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling by an integer factor."""
    scale = int(scale)
    a = x
    out = a.data.repeat(scale, axis=-2).repeat(scale, axis=-1)
    n, c, h, w = a.shape

    def backward(grad):
        g = grad.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5))
        return (g,)

    return Tensor._make(out, (a,), backward)


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel ``sum(a * b)`` over every axis but 1 of ``(N, C, ...)``
    arrays: one batched dot, with no product array."""
    n, c = a.shape[:2]
    return np.matmul(a.reshape(n, c, 1, -1),
                     b.reshape(n, c, -1, 1)).sum(axis=(0, 2, 3))


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1,
               eps: float = 1e-5,
               negative_slope: Optional[float] = None) -> Tensor:
    """Batch normalization over the channel axis of NCHW (or NC) input,
    and the rectifier that follows it, as one autograd node.

    ``running_mean`` / ``running_var`` are plain arrays updated in place
    during training, used directly in eval mode.  ``negative_slope``
    names the activation applied to the normalized output: ``None`` for
    none, ``0`` for ReLU, ``s`` in ``(0, 1]`` for LeakyReLU(``s``).

    The forward centres the input once; that array gives the variance
    (a per-channel dot), becomes the cached ``x̂`` in place, and the
    output is rectified in place.  The backward recovers the rectifier's
    mask from the output's sign and takes both batch means of
    ``k·(g − mean(g) − x̂·mean(g·x̂))``, ``k = γ/√(var+ε)``, from the
    γ and β gradient sums (DESIGN.md §18).
    """
    if x.ndim == 4:
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
    elif x.ndim == 2:
        axes = (0,)
        shape = (1, -1)
    else:
        raise ValueError(f"batch_norm expects 2D or 4D input, got {x.ndim}D")
    if negative_slope is not None and not 0.0 <= negative_slope <= 1.0:
        raise ValueError(
            f"negative_slope must be in [0, 1], got {negative_slope}")
    count = x.data.size // x.shape[1]

    prof = _profiler.ACTIVE
    started = time.perf_counter() if prof is not None else 0.0
    mean = x.data.mean(axis=axes) if training else running_mean
    x_hat = x.data - mean.reshape(shape)
    if training:
        var = _channel_dot(x_hat, x_hat) / count
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        unbiased = var * count / max(count - 1, 1)
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased
    else:
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat *= inv_std.reshape(shape)
    out = x_hat * gamma.data.reshape(shape)
    out += beta.data.reshape(shape)
    if negative_slope is not None:
        # max(z, s·z) is z for z > 0 and s·z otherwise, for 0 <= s <= 1.
        np.maximum(out, negative_slope * out, out=out)

    x_grad, gamma_grad, beta_grad = (x.requires_grad, gamma.requires_grad,
                                     beta.requires_grad)
    k = (gamma.data * inv_std).reshape(shape)

    def backward(grad):
        if negative_slope is not None:
            # The output is positive exactly where its input was.
            grad = grad * np.maximum(out > 0,
                                     out.dtype.type(negative_slope))
        grad_beta = grad.sum(axis=axes)
        grad_gamma = _channel_dot(grad, x_hat)
        grad_x = None
        if x_grad:
            if training:
                grad_x = x_hat * (grad_gamma / count).reshape(shape)
                np.subtract(grad, grad_x, out=grad_x)
                grad_x -= (grad_beta / count).reshape(shape)
                grad_x *= k
            else:
                grad_x = grad * k
        return (grad_x,
                grad_gamma if gamma_grad else None,
                grad_beta if beta_grad else None)

    if prof is not None:
        prof.record("batch_norm", time.perf_counter() - started,
                    nbytes=out.nbytes)
        backward = prof.wrap_backward("batch_norm", backward)
    return Tensor._make(out, (x, gamma, beta), backward)


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def mse_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Squared error; with ``reduction='sum'`` this is exactly the paper's
    squared L2 metric (Definition 1)."""
    diff = prediction - (target if isinstance(target, Tensor) else Tensor(target))
    squared = diff * diff
    if reduction == "mean":
        return squared.mean()
    if reduction == "sum":
        return squared.sum()
    if reduction == "none":
        return squared
    raise ValueError(f"unknown reduction {reduction!r}")


def l1_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    diff = (prediction - (target if isinstance(target, Tensor) else Tensor(target))).abs()
    if reduction == "mean":
        return diff.mean()
    if reduction == "sum":
        return diff.sum()
    if reduction == "none":
        return diff
    raise ValueError(f"unknown reduction {reduction!r}")


def bce_loss(probability: Tensor, target: Tensor, eps: float = 1e-7,
             reduction: str = "mean") -> Tensor:
    """Binary cross-entropy on probabilities (post-sigmoid).

    The GAN objectives (Eqs. 7-8) are log-likelihood terms of exactly this
    form; ``eps`` clamping keeps ``log`` finite when the discriminator
    saturates early in training.
    """
    target = target if isinstance(target, Tensor) else Tensor(target)
    p = probability.clip(eps, 1.0 - eps)
    loss = -(target * p.log() + (1.0 - target) * (1.0 - p).log())
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def bce_with_logits(logits: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Numerically stable BCE on raw logits:
    ``max(z, 0) - z * t + log(1 + exp(-|z|))``."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    z = logits
    relu_z = z.relu()
    abs_z = z.abs()
    loss = relu_z - z * target + ((-abs_z).exp() + 1.0).log()
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    if reduction == "none":
        return loss
    raise ValueError(f"unknown reduction {reduction!r}")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)
