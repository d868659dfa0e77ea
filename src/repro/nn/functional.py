"""Neural-network functional operations for the ``repro.nn`` substrate.

Implements the convolutional primitives the GAN-OPC generator (stacked
conv encoder + deconv decoder, Figure 4 of the paper) and discriminator
are built from, plus the pooling / interpolation operations the paper's
resolution bridge uses (8x8 average pooling before the network, linear
interpolation after — Section 4).

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
``(taps * C, L)`` stack first, so its side is a single GEMM.
``im2col``/``col2im`` remain for pooling.
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
# im2col / col2im (pooling)
# ----------------------------------------------------------------------
def im2col(x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int]) -> np.ndarray:
    """Lower image patches to columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel, stride, padding:
        Spatial convolution geometry.

    Returns
    -------
    ndarray of shape ``(N, C * KH * KW, OH * OW)``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"convolution output would be empty: input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {sh}x{sw}, padding {ph}x{pw}")
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    sn, sc, sh_, sw_ = x.strides
    shape = (n, c, kh, kw, oh, ow)
    strides = (sn, sc, sh_, sw_, sh_ * sh, sw_ * sw)
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    return patches.reshape(n, c * kh * kw, oh * ow) if patches.flags.c_contiguous \
        else np.ascontiguousarray(patches).reshape(n, c * kh * kw, oh * ow)


def col2im(cols: np.ndarray, image_shape: Tuple[int, int, int, int],
           kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int]) -> np.ndarray:
    """Scatter-add columns back into an image (adjoint of :func:`im2col`)."""
    n, c, h, w = image_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        h_end = i + sh * oh
        for j in range(kw):
            w_end = j + sw * ow
            padded[:, :, i:h_end:sh, j:w_end:sw] += cols[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph:h + ph, pw:w + pw]
    return padded


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
    """

    def __init__(self, fine: Tuple[int, int], coarse: Tuple[int, int],
                 kernel: Tuple[int, int], stride: Tuple[int, int],
                 padding: Tuple[int, int]):
        (oh, ow), (kh, kw), (sh, sw) = coarse, kernel, stride
        reach_h, reach_w = (kh - 1) // sh, (kw - 1) // sw
        self.coarse = coarse
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
             fine: Tuple[int, int]) -> np.ndarray:
    """Coarse → fine: the framed coarse operand read through the tap
    table in the opposite direction, one phase plane at a time."""
    n = framed.shape[0]
    t, cc, cf = tap_weights.shape
    groups = [taps.groups[window[0]] for window in taps.windows]
    if cc < cf:
        # Every phase's GEMM runs before the output exists, so the
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
    out = (np.empty if taps.covers else np.zeros)((n, cf) + tuple(fine),
                                                  framed.dtype)
    for (_, plane_rows, plane_cols, rows, cols), plane in zip(taps.windows,
                                                              planes):
        # A phase without taps (kernel smaller than stride) stays zero.
        out[:, :, rows, cols] = 0 if plane is None else plane.reshape(
            n, cf, taps.rows, taps.width)[:, :, plane_rows, plane_cols]
    return out


def _weight_grad(operand: np.ndarray, raster: np.ndarray, taps: _Taps,
                 shape: Tuple[int, int, int, int]) -> np.ndarray:
    """``(Cc, Cf, KH, KW)`` weight gradient: the coarse side ``raster``
    ``(N, Cc, span)`` (zero junk columns) contracted per tap with the
    fine operand (gather or phase planes), summed over the batch."""
    cc, cf = shape[:2]
    if operand.ndim == 3:
        per_tap = np.matmul(raster, operand.transpose(0, 2, 1)).sum(axis=0)
        per_tap = per_tap.reshape(cc, -1, cf).transpose(1, 0, 2)
    else:
        per_tap = np.stack([
            np.matmul(raster, operand[:, s, :, off:off + taps.span]
                      .transpose(0, 2, 1)).sum(axis=0)
            for s, off in zip(taps.phase, taps.ahead)])
    grad = np.empty(shape, per_tap.dtype)
    grad[:, :, taps.ki, taps.kj] = per_tap.transpose(1, 2, 0)
    return grad


def _dtype(x: Tensor, weight: Tensor, bias: Optional[Tensor]):
    return np.result_type(x.data, weight.data,
                          *(() if bias is None else (bias.data,)))


def _dense(coarse: np.ndarray, bias: Optional[Tensor] = None) -> np.ndarray:
    """C-ordered copy of a ``(N, C, OH, OW)`` result view, plus bias."""
    out = np.empty(coarse.shape, coarse.dtype)
    if bias is None:
        out[...] = coarse
    else:
        np.add(coarse, bias.data.reshape(1, -1, 1, 1), out=out)
    return out


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
    taps = _Taps((h, w), (oh, ow), (kh, kw), stride, padding)
    dtype = _dtype(x, weight, bias)
    tap_weights = _tap_weights(weight.data, taps)
    # The input's phase planes, or their gather when the input has
    # fewer channels than the output; the weight gradient reads them.
    operand = _fine_operand(x.data, taps, f, dtype)
    out = _dense(_to_coarse(operand, tap_weights, taps), bias)

    parents = (x, weight) if bias is None else (x, weight, bias)
    x_grad, w_grad = x.requires_grad, weight.requires_grad
    b_grad = bias is not None and bias.requires_grad
    if not w_grad:
        operand = None

    def backward(grad):
        framed, raster = _coarse_operand(grad, taps,
                                         np.result_type(grad, dtype))
        grads = [
            _to_fine(framed, tap_weights, taps, (h, w)) if x_grad else None,
            _weight_grad(operand, raster, taps, (f, c, kh, kw))
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
    taps = _Taps((oh, ow), (h, w), (kh, kw), stride, padding)
    dtype = _dtype(x, weight, bias)
    tap_weights = _tap_weights(weight.data, taps)
    # The framed input; the weight gradient reads its raster view.
    framed, raster = _coarse_operand(x.data, taps, dtype)
    out = _to_fine(framed, tap_weights, taps, (oh, ow))
    if bias is not None:
        out += bias.data.reshape(1, f, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    x_grad, w_grad = x.requires_grad, weight.requires_grad
    b_grad = bias is not None and bias.requires_grad
    if not w_grad:
        raster = None

    def backward(grad):
        operand = _fine_operand(grad, taps, c, np.result_type(grad, dtype))
        grads = [
            _dense(_to_coarse(operand, tap_weights, taps)) if x_grad else None,
            _weight_grad(operand, raster, taps, (c, f, kh, kw))
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
# Pooling
# ----------------------------------------------------------------------
def avg_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling; the paper applies 8x8 average pooling to 2048px
    layout images before feeding the network (Section 4)."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    kh, kw = kernel
    sh, sw = stride
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1

    cols = im2col(x.data, kernel, stride, (0, 0)).reshape(n, c, kh * kw, oh * ow)
    out = cols.mean(axis=2).reshape(n, c, oh, ow)

    def backward(grad):
        grad_cols = np.repeat(grad.reshape(n, c, 1, oh * ow), kh * kw, axis=2)
        grad_cols = (grad_cols / (kh * kw)).reshape(n, c * kh * kw, oh * ow)
        return (col2im(grad_cols, (n, c, h, w), kernel, stride, (0, 0)),)

    return Tensor._make(out, (x,), backward)


def max_pool2d(x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    kh, kw = kernel
    sh, sw = stride
    n, c, h, w = x.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1

    cols = im2col(x.data, kernel, stride, (0, 0)).reshape(n, c, kh * kw, oh * ow)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2)[:, :, 0, :]
    out = out.reshape(n, c, oh, ow)

    def backward(grad):
        grad_cols = np.zeros((n, c, kh * kw, oh * ow), dtype=grad.dtype)
        np.put_along_axis(grad_cols, argmax[:, :, None, :],
                          grad.reshape(n, c, 1, oh * ow), axis=2)
        grad_cols = grad_cols.reshape(n, c * kh * kw, oh * ow)
        return (col2im(grad_cols, (n, c, h, w), kernel, stride, (0, 0)),)

    return Tensor._make(out, (x,), backward)


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
