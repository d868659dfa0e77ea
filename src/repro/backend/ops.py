"""Array-module-generic implementations of the patch lowering primitives.

``im2col``/``col2im`` are written once against an ``xp`` array module
(``numpy`` or ``cupy``) and shared by every backend — and by
``repro.nn.functional``, whose public ``im2col``/``col2im`` delegate
here with ``xp=numpy`` for pooling (its convolutions run on their own
phase-split core).  Both modules expose the same ``pad`` /
``lib.stride_tricks.as_strided`` / ``copyto`` surface, so a single
implementation keeps the numpy path bit-identical while giving the GPU
backend the identical lowering for free.
"""

from __future__ import annotations

from typing import Tuple


def im2col(xp, x, kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int]):
    """Lower ``(N, C, H, W)`` patches to ``(N, C*KH*KW, OH*OW)`` columns."""
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
        x = xp.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    sn, sc, sh_, sw_ = x.strides
    shape = (n, c, kh, kw, oh, ow)
    strides = (sn, sc, sh_, sw_, sh_ * sh, sw_ * sw)
    patches = xp.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    return patches.reshape(n, c * kh * kw, oh * ow) if patches.flags.c_contiguous \
        else xp.ascontiguousarray(patches).reshape(n, c * kh * kw, oh * ow)


def col2im(xp, cols, image_shape: Tuple[int, int, int, int],
           kernel: Tuple[int, int], stride: Tuple[int, int],
           padding: Tuple[int, int]):
    """Scatter-add columns back into an image (adjoint of :func:`im2col`)."""
    n, c, h, w = image_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    padded = xp.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        h_end = i + sh * oh
        for j in range(kw):
            w_end = j + sw * ow
            padded[:, :, i:h_end:sh, j:w_end:sw] += cols[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph:h + ph, pw:w + pw]
    return padded
