"""Process-variation band (PVB) measurement.

Table 2's "PVB" column is the contour-area variation of the wafer image
under +/-2% exposure-dose error: the area between the outermost contour
(over-dose) and the innermost contour (under-dose).

The band is measured over a corner wafer stack (a
:class:`~repro.litho.conditions.ConditionSet` of (defocus, dose)
corners evaluated by the engine): the set of pixels that print at
*some* corner but not at *every* corner — the union of the corner
wafers XOR their intersection.  On the paper's dose corners that is
the XOR of the over- and under-dose wafers; on a full process window
it is the window band.
"""

from __future__ import annotations

import numpy as np

from ..litho.engine import LithoEngine


def window_band(wafers: np.ndarray) -> np.ndarray:
    """Boolean band image over a corner wafer stack ``(C, H, W)``.

    A pixel is in the band when it prints at at least one corner but
    not at all of them (union XOR intersection).
    """
    wafers = np.asarray(wafers, dtype=bool)
    if wafers.ndim != 3:
        raise ValueError(
            f"wafer stack must be (C, H, W), got shape {wafers.shape}")
    return np.logical_xor(wafers.any(axis=0), wafers.all(axis=0))


def window_pv_band(wafers: np.ndarray) -> float:
    """Window PV band in pixel units from a corner wafer stack."""
    return float(window_band(wafers).sum())


def window_pv_band_nm2(wafers: np.ndarray, pixel_nm: float) -> float:
    """Window PV band in nm^2 (Table 2 units, generalized corners)."""
    return window_pv_band(wafers) * pixel_nm * pixel_nm


def mask_window_pv_band(engine: LithoEngine, mask: np.ndarray) -> float:
    """Convenience: simulate the engine's corner stack on ``mask`` and
    measure the window PVB in nm^2."""
    wafers = engine.condition_wafers(mask)
    return window_pv_band_nm2(wafers, engine.config.pixel_nm)
