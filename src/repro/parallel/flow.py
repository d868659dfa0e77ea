"""Generator weights as a task run's broadcast state.

Flow tasks (Table 2 clips, tiled-flow tiles) rebuild the generator
from a :func:`generator_payload` that the run broadcasts once per
worker through the pool's ``state`` channel (the executor
initializer), never per task; an inline run hands tasks the same
payload.  The rebuilt generator is in eval mode and carries the exact
weights, so its masks are bit-exact with the original's.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.generator import MaskGenerator


def generator_payload(generator: MaskGenerator) -> Dict:
    """Broadcastable reconstruction recipe for a generator."""
    return {"channels": generator.channels,
            "residual_scale": generator.residual_scale,
            "weights": generator.state_dict()}


def _rebuild_generator(payload: Dict) -> MaskGenerator:
    generator = MaskGenerator(payload["channels"],
                              residual_scale=payload["residual_scale"],
                              rng=np.random.default_rng(0))
    generator.load_state_dict(payload["weights"])
    generator.eval()
    return generator
