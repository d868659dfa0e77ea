"""Elementwise numerics shared by the litho engine and ``repro.nn``.

A numpy-only leaf module, so neither package imports the other for it.
"""

from __future__ import annotations

import numpy as np


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid without overflow for large-magnitude inputs.

    With ``e = exp(-|x|)`` (never overflows) this is ``1 / (1 + e)``
    for ``x >= 0`` and ``e / (1 + e)`` otherwise.  Since ``0 <= e <= 1``
    the numerator is ``np.maximum(e, x >= 0)``, so both branches are one
    divide with no data-dependent select, and every output bit equals
    the two-branch formula's.  Preserves float32 input dtype (the
    engine's f32 precision mode flows through here); everything else
    computes in float64.
    """
    x = np.asarray(x)
    dtype = x.dtype if x.dtype == np.float32 else np.float64
    x = x.astype(dtype, copy=False)
    e = np.abs(x, out=np.empty_like(x))
    np.exp(np.negative(e, out=e), out=e)
    denominator = 1.0 + e
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, denominator, out=e)
