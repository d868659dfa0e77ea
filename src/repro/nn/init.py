"""Weight initialization schemes for ``repro.nn`` modules.

Every layer initializes its weights with Kaiming (He) uniform and its
bias with the fan-in uniform, as PyTorch's layers do.  The paper
reports no initialization, so these follow common DCGAN-era practice.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _fan_in(shape: Tuple[int, ...]) -> int:
    """Fan-in of linear ``(out, in)`` or convolutional weights; a deconv's
    ``(in, out, kh, kw)`` weight counts its second axis, as PyTorch does."""
    if len(shape) == 2:
        return shape[1]
    return shape[1] * shape[2] * shape[3]


def kaiming_uniform(shape, rng: np.random.Generator, a: float = 0.0) -> np.ndarray:
    """He uniform for (leaky-)ReLU nonlinearities."""
    fan_in = _fan_in(tuple(shape))
    gain = np.sqrt(2.0 / (1.0 + a ** 2))
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def uniform_bias(shape, rng: np.random.Generator, fan_in: int) -> np.ndarray:
    """PyTorch-style bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
