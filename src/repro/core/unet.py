"""U-Net mask generator — an extension beyond the paper's architecture.

The paper's generator is a plain convolutional auto-encoder (Fig. 4);
follow-up work on learned mask optimization (e.g. Neural-ILT, DAMO)
found that skip connections between encoder and decoder levels preserve
the fine geometry the bottleneck discards, which matters because OPC
corrections are inherently local.  :class:`UNetMaskGenerator` is a
drop-in replacement for :class:`~repro.core.generator.MaskGenerator`
(same call signature, same residual-correction output formulation), so
every trainer, flow and benchmark in this repo can run either
architecture — the architecture ablation benchmark compares them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import nn


class _Down(nn.Module):
    """Stride-2 conv + BN + LeakyReLU(0.2) encoder level."""

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        super().__init__()
        self.body = nn.Sequential(
            nn.Conv2d(in_ch, out_ch, 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(out_ch, negative_slope=0.2),
        )

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.body(x)


class _Up(nn.Module):
    """Deconv upsample, concat the skip, fuse with a 3x3 conv + BN + ReLU."""

    def __init__(self, in_ch: int, skip_ch: int, out_ch: int,
                 rng: np.random.Generator):
        super().__init__()
        self.up = nn.ConvTranspose2d(in_ch, out_ch, 4, stride=2, padding=1,
                                     rng=rng)
        self.fuse = nn.Sequential(
            nn.Conv2d(out_ch + skip_ch, out_ch, 3, padding=1, rng=rng),
            nn.BatchNorm2d(out_ch, negative_slope=0.0),
        )

    def forward(self, x: nn.Tensor, skip: nn.Tensor) -> nn.Tensor:
        upsampled = self.up(x)
        return self.fuse(nn.concatenate([upsampled, skip], axis=1))


class UNetMaskGenerator(nn.Module):
    """U-Net generator ``G(Z_t) -> M`` with target-residual output.

    Parameters
    ----------
    channels:
        Encoder widths per level (each level halves resolution).  Needs
        at least two levels for skips to exist.
    residual_scale:
        Strength of the target skip into the output logits (same
        correction formulation as the baseline generator).
    rng:
        Initialization RNG.
    """

    def __init__(self, channels: Tuple[int, ...] = (16, 32, 64),
                 residual_scale: float = 2.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if len(channels) < 2:
            raise ValueError("U-Net needs at least two channel levels")
        if residual_scale < 0:
            raise ValueError("residual_scale must be nonnegative")
        rng = rng or np.random.default_rng()
        self.channels = tuple(channels)
        self.residual_scale = float(residual_scale)

        downs: List[_Down] = []
        in_ch = 1
        for out_ch in channels:
            downs.append(_Down(in_ch, out_ch, rng))
            in_ch = out_ch
        self.downs = nn.Sequential(*downs)  # registered; called manually

        ups: List[_Up] = []
        for level in range(len(channels) - 2, -1, -1):
            ups.append(_Up(in_ch, channels[level], channels[level], rng))
            in_ch = channels[level]
        self.ups = nn.Sequential(*ups)

        self.head = nn.Sequential(
            nn.ConvTranspose2d(in_ch, channels[0], 4, stride=2, padding=1,
                               rng=rng),
            nn.ReLU(),
            nn.Conv2d(channels[0], 1, 3, padding=1, rng=rng),
        )

    def forward(self, target: nn.Tensor) -> nn.Tensor:
        if target.ndim != 4 or target.shape[1] != 1:
            raise ValueError(
                f"generator expects (N, 1, H, W) input, got {target.shape}")
        skips: List[nn.Tensor] = []
        x = target
        for down in self.downs:
            x = down(x)
            skips.append(x)
        skips.pop()  # bottleneck is not its own skip
        for up in self.ups:
            x = up(x, skips.pop())
        logits = self.head(x)
        if self.residual_scale:
            logits = logits + self.residual_scale * (2.0 * target - 1.0)
        return logits.sigmoid()

    def generate(self, target_image: np.ndarray) -> np.ndarray:
        """Single-image inference without autograd (Fig. 6 stage)."""
        was_training = self.training
        self.eval()
        try:
            with nn.no_grad():
                batch = nn.Tensor(
                    np.asarray(target_image, dtype=float)[None, None])
                mask = self.forward(batch)
            return mask.data[0, 0]
        finally:
            self.train(was_training)
