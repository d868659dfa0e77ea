"""``repro.litho`` — Hopkins partially-coherent lithography simulation.

Reproduces the imaging substrate of the paper (Eqs. 1-3, 12): an SVD
coherent-kernel decomposition of the Hopkins model (24 kernels, like the
ICCAD-2013 ``lithosim_v4`` engine the paper uses), FFT aerial imaging,
and constant-threshold / sigmoid resist models, plus (defocus, dose)
corner stacks for process-variation-band evaluation.
:class:`LithoEngine` is the one entry point to the imaging model.
"""

from .conditions import PW_OBJECTIVES, Condition, ConditionSet
from .config import LithoConfig, OpticsConfig
from .engine import EngineStats, LithoEngine
from .kernels import KernelSet, build_kernels, clear_cache, config_hash
from .pupil import frequency_grid, pupil_function
from .resist import binarize_mask, hard_resist, sigmoid_mask
from .source import source_points
from .window import (ProcessWindow, depth_of_focus, exposure_latitude,
                     process_window_matrix)

__all__ = [
    "OpticsConfig", "LithoConfig",
    "Condition", "ConditionSet", "PW_OBJECTIVES",
    "EngineStats", "LithoEngine",
    "KernelSet", "build_kernels", "clear_cache", "config_hash",
    "frequency_grid", "pupil_function", "source_points",
    "hard_resist", "sigmoid_mask", "binarize_mask",
    "ProcessWindow", "process_window_matrix", "exposure_latitude",
    "depth_of_focus",
]
