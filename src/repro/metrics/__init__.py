"""``repro.metrics`` — mask printability metrics.

Squared L2 (Definition 1), process-variation band under dose error
(Table 2), edge placement error and neck/bridge defect detectors
(Figure 2), and Table 2-style reporting.
"""

from .defects import BridgeDefect, NeckDefect, detect_bridges, detect_necks
from .epe import EPEReport, EPESample, control_points, measure_epe
from .l2 import squared_l2, squared_l2_nm2
from .pvband import (mask_window_pv_band, window_band, window_pv_band,
                     window_pv_band_nm2)
from .report import MaskEvaluation, comparison_table, evaluate_mask

__all__ = [
    "squared_l2", "squared_l2_nm2",
    "window_band", "window_pv_band", "window_pv_band_nm2",
    "mask_window_pv_band",
    "EPESample", "EPEReport", "control_points", "measure_epe",
    "NeckDefect", "BridgeDefect", "detect_necks", "detect_bridges",
    "MaskEvaluation", "evaluate_mask", "comparison_table",
]
