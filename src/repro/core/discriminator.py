"""GAN-OPC discriminators (Section 3.2).

The key architectural insight of the paper: a conventional
discriminator ``D(M)`` that only sees masks cannot force a one-to-one
target->mask mapping — the generator can deceive it by emitting *any*
reference mask regardless of the input target (Eq. 6).  GAN-OPC instead
classifies **target-mask pairs**: inputs are either ``(Z_t, G(Z_t))``
(fake) or ``(Z_t, M*)`` (true), stacked as two image channels, so the
generator wins if and only if ``G(Z_t) ~= M*`` for every training
target.

:class:`PairDiscriminator` implements the paper's pair design;
:class:`MaskOnlyDiscriminator` implements the conventional design and
exists for the ablation benchmark that demonstrates why pairing is
necessary.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn


def _conv_block(in_ch: int, out_ch: int, rng: np.random.Generator) -> nn.Sequential:
    """Stride-2 conv + batch-norm + LeakyReLU(0.2)."""
    return nn.Sequential(
        nn.Conv2d(in_ch, out_ch, kernel_size=3, stride=2, padding=1, rng=rng),
        nn.BatchNorm2d(out_ch, negative_slope=0.2),
    )


class _ConvClassifier(nn.Module):
    """Shared conv->FC->sigmoid classifier trunk."""

    def __init__(self, in_channels: int, grid: int,
                 channels: Tuple[int, ...], rng: np.random.Generator):
        super().__init__()
        if not channels:
            raise ValueError("discriminator needs at least one channel level")
        factor = 2 ** len(channels)
        if grid % factor:
            raise ValueError(
                f"grid {grid} not divisible by downsampling factor {factor}")
        blocks = []
        current = in_channels
        for out_ch in channels:
            blocks.append(_conv_block(current, out_ch, rng))
            current = out_ch
        self.features = nn.Sequential(*blocks)
        bottleneck = grid // factor
        self.flatten = nn.Flatten()
        self.classifier = nn.Linear(current * bottleneck * bottleneck, 1, rng=rng)
        self.activation = nn.Sigmoid()

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        h = self.flatten(self.features(x))
        return self.activation(self.classifier(h))


class PairDiscriminator(nn.Module):
    """Pair classifier ``D(Z_t, M) -> probability of (Z_t, M*)``.

    Target and mask are concatenated along the channel axis, so the
    network sees their spatial correspondence from the first layer.
    """

    def __init__(self, grid: int, channels: Tuple[int, ...] = (16, 32, 64, 128),
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.grid = grid
        self.trunk = _ConvClassifier(in_channels=2, grid=grid,
                                     channels=tuple(channels), rng=rng)

    def forward(self, target: nn.Tensor, mask: nn.Tensor) -> nn.Tensor:
        """Score target/mask batches ``(N, 1, g, g)`` -> ``(N, 1)``."""
        if target.shape != mask.shape:
            raise ValueError(
                f"target {target.shape} and mask {mask.shape} shapes differ")
        pair = nn.concatenate([target, mask], axis=1)
        return self.trunk(pair)


class MaskOnlyDiscriminator(nn.Module):
    """Conventional discriminator ``D(M)`` (ablation baseline).

    Without the target channel, Eq. 6 applies: any reference mask
    maximizes the generator objective, so target-mask correspondence is
    unconstrained.  The ablation benchmark shows the pair design reaches
    much lower mapping error.
    """

    def __init__(self, grid: int, channels: Tuple[int, ...] = (16, 32, 64, 128),
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.grid = grid
        self.trunk = _ConvClassifier(in_channels=1, grid=grid,
                                     channels=tuple(channels), rng=rng)

    def forward(self, target: nn.Tensor, mask: nn.Tensor) -> nn.Tensor:
        """Score masks only; the target argument is accepted (and
        ignored) so both discriminators share the trainer interface."""
        return self.trunk(mask)
