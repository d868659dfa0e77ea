"""Process-window analysis: dose x focus printability matrices.

The paper evaluates process variation through the +/-2% dose band only
(Table 2's PVB column); production flows — and the process-window-aware
OPC of [3-5] the paper cites — characterize masks over a grid of
(dose, defocus) corners.  This module builds those figures of merit on
the condition-stack interface of :class:`~repro.litho.engine.LithoEngine`:
a dose x focus grid becomes a :class:`~repro.litho.conditions.ConditionSet`
and every corner is evaluated in one batched matmul-DFT pass over the
shared mask spectrum (one kernel stack per focus plane, served from the
kernel caches; dose corners are intensity scales on top).

* :func:`process_window_matrix` — L2 wafer error over a dose x focus
  grid;
* :func:`exposure_latitude` — the dose range keeping the wafer error
  under a tolerance at nominal focus;
* :func:`depth_of_focus` — the focus range keeping it under tolerance
  at nominal dose.

These power the extended process-window example and give downstream
users the standard litho figure-of-merit vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .conditions import ConditionSet
from .config import LithoConfig
from .engine import LithoEngine
from .kernels import build_kernels


@dataclass(frozen=True)
class ProcessWindow:
    """Printability over a (focus, dose) grid.

    Attributes
    ----------
    doses / defocuses:
        Axis values: relative exposure doses and defocus in nm.
    l2_error:
        Array ``(len(defocuses), len(doses))`` of squared-L2 wafer
        errors against the target.
    """

    doses: Tuple[float, ...]
    defocuses: Tuple[float, ...]
    l2_error: np.ndarray

    def within_tolerance(self, tolerance: float) -> np.ndarray:
        """Boolean pass/fail matrix."""
        return self.l2_error <= tolerance

    def nominal_error(self) -> float:
        """Error at the corner closest to (dose 1.0, focus 0)."""
        di = int(np.argmin(np.abs(np.asarray(self.doses) - 1.0)))
        fi = int(np.argmin(np.abs(np.asarray(self.defocuses))))
        return float(self.l2_error[fi, di])


def process_window_matrix(mask: np.ndarray, target: np.ndarray,
                          config: LithoConfig,
                          doses: Sequence[float] = (0.95, 0.98, 1.0, 1.02, 1.05),
                          defocuses: Sequence[float] = (0.0, 40.0, 80.0),
                          engine: Optional[LithoEngine] = None,
                          ) -> ProcessWindow:
    """Simulate ``mask`` over every (defocus, dose) corner.

    The grid becomes a defocus-major :meth:`ConditionSet.grid` stack
    evaluated by a shared condition engine: one kernel set per focus
    plane (built through the in-process and disk kernel caches) and one
    mask spectrum for all corners.  Pass ``engine`` to reuse a
    condition engine across calls; it must have been built for the
    same corner grid.
    """
    doses = tuple(float(d) for d in doses)
    defocuses = tuple(float(f) for f in defocuses)
    if not doses or not defocuses:
        raise ValueError("need at least one dose and one defocus value")

    conditions = ConditionSet.grid(defocuses=defocuses, doses=doses)
    if engine is None:
        engine = LithoEngine.for_conditions(build_kernels(config), conditions)
    elif engine.conditions != conditions:
        raise ValueError("engine was built for a different corner grid")
    errors = engine.condition_litho_errors(mask, target)
    matrix = np.asarray(errors, dtype=float).reshape(len(defocuses),
                                                     len(doses))
    return ProcessWindow(doses=doses, defocuses=defocuses, l2_error=matrix)


def exposure_latitude(mask: np.ndarray, target: np.ndarray,
                      config: LithoConfig, tolerance: float,
                      dose_span: float = 0.15, steps: int = 31) -> float:
    """Widest contiguous dose interval around 1.0 with error <= tol.

    Returns the interval width (e.g. 0.06 for +/-3%); 0.0 when even the
    nominal dose fails.
    """
    doses = np.linspace(1.0 - dose_span, 1.0 + dose_span, steps)
    window = process_window_matrix(mask, target, config, doses=doses,
                                   defocuses=(config.optics.defocus,))
    passing = window.within_tolerance(tolerance)[0]
    return _widest_interval_around(doses, passing, center=1.0)


def depth_of_focus(mask: np.ndarray, target: np.ndarray,
                   config: LithoConfig, tolerance: float,
                   focus_span: float = 120.0, steps: int = 13) -> float:
    """Widest contiguous defocus interval around 0 with error <= tol."""
    defocuses = np.linspace(-focus_span, focus_span, steps)
    window = process_window_matrix(mask, target, config, doses=(1.0,),
                                   defocuses=defocuses)
    passing = window.within_tolerance(tolerance)[:, 0]
    return _widest_interval_around(defocuses, passing, center=0.0)


def _widest_interval_around(axis: np.ndarray, passing: np.ndarray,
                            center: float) -> float:
    """Length of the contiguous passing run containing ``center``."""
    center_index = int(np.argmin(np.abs(axis - center)))
    if not passing[center_index]:
        return 0.0
    lo = center_index
    while lo > 0 and passing[lo - 1]:
        lo -= 1
    hi = center_index
    while hi < len(axis) - 1 and passing[hi + 1]:
        hi += 1
    return float(axis[hi] - axis[lo])
