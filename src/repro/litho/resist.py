"""Photoresist models (Eqs. 3 and 12 of the paper).

Two views of the same threshold resist:

* :func:`hard_resist` — the binary constant-threshold model used for
  *evaluation* (wafer image ``Z`` in the metrics and Table 2);
* :func:`sigmoid_resist` — the relaxed, differentiable model used
  inside ILT and the ILT-guided pre-training (Eq. 12), whose steepness
  ``alpha`` controls how closely it approximates the hard threshold.

The mask-side relaxation (Eq. 13) also lives here as
:func:`sigmoid_mask` since it is the same construction with ``beta``.
"""

from __future__ import annotations

import numpy as np

from repro.numerics import stable_sigmoid


def hard_resist(intensity: np.ndarray, threshold: float) -> np.ndarray:
    """Binary wafer image: ``Z = 1`` where ``I >= I_th`` (Eq. 3)."""
    return (np.asarray(intensity) >= threshold).astype(float)


def sigmoid_resist(intensity: np.ndarray, threshold: float,
                   steepness: float) -> np.ndarray:
    """Relaxed wafer image ``Z = sigma(alpha * (I - I_th))`` (Eq. 12)."""
    return stable_sigmoid(steepness * (np.asarray(intensity) - threshold))


def sigmoid_mask(mask_params: np.ndarray, steepness: float) -> np.ndarray:
    """Relaxed mask binarization ``M_b = sigma(beta * M)`` (Eq. 13).

    ``mask_params`` are the unconstrained ILT optimization variables;
    the relaxation keeps pixel values in (0, 1) while remaining
    differentiable.
    """
    return stable_sigmoid(steepness * np.asarray(mask_params))


def binarize_mask(mask: np.ndarray, level: float = 0.5) -> np.ndarray:
    """Snap a relaxed mask to {0, 1} for final manufacturing output."""
    return (np.asarray(mask) >= level).astype(float)
