"""The GAN-OPC mask generator (Section 3.1, Figure 4).

A conventional GAN generator deconvolves a random vector into an image;
that architecture cannot consume a target clip, so the paper replaces
it with a convolutional **auto-encoder**: a stacked conv encoder
performs "hierarchical layout feature abstractions" and a deconv
decoder "predicts the pixel-based mask correction with respect to the
target" from the bottleneck features.

The generator maps a target batch ``(N, 1, g, g)`` to a mask batch of
the same shape with values in (0, 1) (sigmoid output — the relaxed mask
the litho engine and discriminator consume).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn


def _encoder_block(in_ch: int, out_ch: int, rng: np.random.Generator) -> nn.Sequential:
    """Stride-2 conv + batch-norm + LeakyReLU(0.2): one abstraction level."""
    return nn.Sequential(
        nn.Conv2d(in_ch, out_ch, kernel_size=3, stride=2, padding=1, rng=rng),
        nn.BatchNorm2d(out_ch, negative_slope=0.2),
    )


def _decoder_block(in_ch: int, out_ch: int, rng: np.random.Generator) -> nn.Sequential:
    """Stride-2 deconv + batch-norm + ReLU: one reconstruction level."""
    return nn.Sequential(
        nn.ConvTranspose2d(in_ch, out_ch, kernel_size=4, stride=2, padding=1,
                           rng=rng),
        nn.BatchNorm2d(out_ch, negative_slope=0.0),
    )


class MaskGenerator(nn.Module):
    """Auto-encoder generator ``G(Z_t) -> M``.

    The decoder "predicts the pixel-based mask *correction* with respect
    to the target" (Section 3.1), which this implementation realizes
    literally: the decoder emits correction logits that are added to a
    scaled copy of the target before the output sigmoid
    (``M = sigma(decoder(encoder(Z_t)) + residual_scale * (2 Z_t - 1))``).
    A freshly initialized generator therefore already reproduces a
    softened target — the same starting point ILT uses — and training
    only has to learn the OPC correction on top.  Set
    ``residual_scale=0`` for a plain auto-encoder (the ablation).

    Parameters
    ----------
    channels:
        Encoder widths per level; the decoder mirrors them in reverse.
        Spatial resolution halves per encoder level.
    residual_scale:
        Strength of the target skip path into the output logits.
    rng:
        Initialization RNG (deterministic weights for a fixed seed).

    >>> import numpy as np
    >>> from repro import nn
    >>> g = MaskGenerator(channels=(4, 8), rng=np.random.default_rng(0))
    >>> out = g(nn.Tensor(np.zeros((2, 1, 16, 16))))
    >>> out.shape
    (2, 1, 16, 16)
    """

    def __init__(self, channels: Tuple[int, ...] = (16, 32, 64, 128),
                 residual_scale: float = 2.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not channels:
            raise ValueError("generator needs at least one channel level")
        if residual_scale < 0:
            raise ValueError("residual_scale must be nonnegative")
        rng = rng or np.random.default_rng()
        self.channels = tuple(channels)
        self.residual_scale = float(residual_scale)

        encoder_layers = []
        in_ch = 1
        for out_ch in channels:
            encoder_layers.append(_encoder_block(in_ch, out_ch, rng))
            in_ch = out_ch
        self.encoder = nn.Sequential(*encoder_layers)

        decoder_layers = []
        reversed_channels = list(channels[::-1][1:]) + [channels[0]]
        for out_ch in reversed_channels[:-1]:
            decoder_layers.append(_decoder_block(in_ch, out_ch, rng))
            in_ch = out_ch
        # Final level upsamples to full resolution and emits one channel
        # of correction logits (the sigmoid is applied in forward, after
        # the target skip path is added).
        decoder_layers.append(nn.Sequential(
            nn.ConvTranspose2d(in_ch, channels[0], kernel_size=4, stride=2,
                               padding=1, rng=rng),
            nn.ReLU(),
            nn.Conv2d(channels[0], 1, kernel_size=3, padding=1, rng=rng),
        ))
        self.decoder = nn.Sequential(*decoder_layers)

    def forward(self, target: nn.Tensor) -> nn.Tensor:
        """Generate masks for a target batch ``(N, 1, g, g)``."""
        if target.ndim != 4 or target.shape[1] != 1:
            raise ValueError(
                f"generator expects (N, 1, H, W) input, got {target.shape}")
        logits = self.decoder(self.encoder(target))
        if self.residual_scale:
            logits = logits + self.residual_scale * (2.0 * target - 1.0)
        return logits.sigmoid()

    def generate(self, target_image: np.ndarray) -> np.ndarray:
        """Inference convenience: single 2-D target -> single 2-D mask,
        without building an autograd graph (Fig. 6 generation stage)."""
        was_training = self.training
        self.eval()
        try:
            # Feed the network in its own precision (see nn.to_dtype) so
            # an f32 generator runs every GEMM in single precision.
            dtype = next(self.parameters()).data.dtype
            with nn.no_grad():
                batch = nn.Tensor(
                    np.asarray(target_image, dtype=dtype)[None, None])
                mask = self.forward(batch)
            return mask.data[0, 0]
        finally:
            self.train(was_training)
