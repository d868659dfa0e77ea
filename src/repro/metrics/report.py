"""Mask printability evaluation reports.

Bundles every metric the paper reports (plus the Figure 2 defect
detectors) into one :class:`MaskEvaluation` per mask, and formats
collections of evaluations into the row/column structure of Table 2
(per-clip L2 / PVB / runtime with averages and ratios).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry.layout import Layout
from ..litho.conditions import ConditionSet
from ..litho.engine import LithoEngine
from ..litho.resist import hard_resist
from .defects import detect_bridges, detect_necks
from .epe import measure_epe
from .l2 import squared_l2, squared_l2_nm2
from .pvband import window_pv_band_nm2


@dataclass
class MaskEvaluation:
    """Printability of one mask against one target clip.

    Distances/areas are nm-based to match the paper's units.  The
    ``window_*`` / ``worst_corner_*`` fields are populated only when
    the evaluation ran with a process-window condition engine; they
    generalize the dose-band PVB column to the full corner stack.
    """

    name: str
    l2_px: float
    l2_nm2: float
    pvband_nm2: float
    epe_violations: Optional[int] = None
    neck_defects: Optional[int] = None
    bridge_defects: Optional[int] = None
    runtime_seconds: Optional[float] = None
    window_pvband_nm2: Optional[float] = None
    worst_corner_l2_nm2: Optional[float] = None
    worst_corner_epe: Optional[int] = None
    #: violating EPE control points (``{x, y, epe}`` in nm, worst
    #: first) — the run ledger's ``clip_result`` hotspot payload; not
    #: part of :meth:`as_dict` so metric printouts stay scalar.
    epe_hotspots: Optional[List[dict]] = None

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "l2_px": self.l2_px,
            "l2_nm2": self.l2_nm2,
            "pvband_nm2": self.pvband_nm2,
            "epe_violations": self.epe_violations,
            "neck_defects": self.neck_defects,
            "bridge_defects": self.bridge_defects,
            "runtime_seconds": self.runtime_seconds,
            "window_pvband_nm2": self.window_pvband_nm2,
            "worst_corner_l2_nm2": self.worst_corner_l2_nm2,
            "worst_corner_epe": self.worst_corner_epe,
        }

    def to_dict(self) -> Dict:
        """Lossless strict-JSON dict (non-finite floats as strings)."""
        from ..runtime.telemetry import sanitize
        data = self.as_dict()
        data["epe_hotspots"] = self.epe_hotspots
        return sanitize(data)

    @classmethod
    def from_dict(cls, data: Dict) -> "MaskEvaluation":
        """Inverse of :meth:`to_dict`."""
        def _num(value):
            if value in ("nan", "inf", "-inf"):
                return float(value)
            return value
        hotspots = data.get("epe_hotspots")
        if hotspots is not None:
            hotspots = [{"x": h["x"], "y": h["y"], "epe": _num(h["epe"])}
                        for h in hotspots]
        return cls(
            name=data["name"],
            l2_px=_num(data["l2_px"]),
            l2_nm2=_num(data["l2_nm2"]),
            pvband_nm2=_num(data["pvband_nm2"]),
            epe_violations=data.get("epe_violations"),
            neck_defects=data.get("neck_defects"),
            bridge_defects=data.get("bridge_defects"),
            runtime_seconds=_num(data.get("runtime_seconds")),
            window_pvband_nm2=_num(data.get("window_pvband_nm2")),
            worst_corner_l2_nm2=_num(data.get("worst_corner_l2_nm2")),
            worst_corner_epe=data.get("worst_corner_epe"),
            epe_hotspots=hotspots,
        )


def evaluate_mask(engine: LithoEngine, mask: np.ndarray,
                  target: np.ndarray, layout: Optional[Layout] = None,
                  name: str = "mask",
                  runtime_seconds: Optional[float] = None,
                  epe_threshold: float = 10.0,
                  neck_fraction: float = 0.5,
                  condition_engine: Optional[LithoEngine] = None
                  ) -> MaskEvaluation:
    """Evaluate a mask with every metric the repo reports.

    The mask is imaged once on the nominal ``engine``; dose is a pure
    intensity scale, so that image thresholded at the
    :meth:`ConditionSet.dose_corners` doses gives the corner wafers of
    the PVB column, and the dose-1 corner is the nominal wafer.
    ``layout`` enables the vector-based EPE measurement; without it only
    raster metrics (L2, PVB, neck, bridge) are produced.
    ``neck_fraction`` sets the neck threshold as a fraction of the
    design-rule CD expressed in pixels (80 nm at the paper's node).
    ``condition_engine`` (an engine carrying a process-window
    :class:`~repro.litho.conditions.ConditionSet`) additionally fills
    the window-PVB and worst-corner fields from one stacked forward
    over all corners.
    """
    config = engine.config
    intensity = engine.aerial(mask)
    # Doses (1 - dv, 1, 1 + dv), in the image's dtype so an f32 engine
    # scales in f32.
    doses = ConditionSet.dose_corners(config.dose_variation).doses
    dose_wafers = hard_resist(
        intensity * doses.astype(intensity.dtype)[:, None, None],
        config.threshold)
    wafer = dose_wafers[1]
    pixel_nm = config.pixel_nm
    cd_px = max(int(round(80.0 / pixel_nm * neck_fraction)), 1)

    epe_violations = None
    epe_hotspots = None
    if layout is not None:
        epe_report = measure_epe(wafer, layout, threshold=epe_threshold)
        epe_violations = epe_report.violations
        epe_hotspots = epe_report.hotspots() or None

    window_pvband = worst_l2 = worst_epe = None
    if condition_engine is not None:
        corner_wafers = condition_engine.condition_wafers(mask)
        window_pvband = window_pv_band_nm2(corner_wafers, pixel_nm)
        corner_l2 = [squared_l2_nm2(w, target, pixel_nm)
                     for w in corner_wafers]
        worst_l2 = float(max(corner_l2))
        if layout is not None:
            worst_epe = max(
                measure_epe(w, layout, threshold=epe_threshold).violations
                for w in corner_wafers)

    return MaskEvaluation(
        name=name,
        l2_px=squared_l2(wafer, target),
        l2_nm2=squared_l2_nm2(wafer, target, pixel_nm),
        pvband_nm2=window_pv_band_nm2(dose_wafers, pixel_nm),
        epe_violations=epe_violations,
        neck_defects=len(detect_necks(wafer, target, cd_px)),
        bridge_defects=len(detect_bridges(wafer, target)),
        runtime_seconds=runtime_seconds,
        window_pvband_nm2=window_pvband,
        worst_corner_l2_nm2=worst_l2,
        worst_corner_epe=worst_epe,
        epe_hotspots=epe_hotspots,
    )


def comparison_table(columns: Dict[str, Sequence[MaskEvaluation]],
                     baseline: Optional[str] = None) -> str:
    """Format method columns into a Table 2-style text table.

    Parameters
    ----------
    columns:
        Mapping of method name to its per-clip evaluations (all methods
        must cover the same clips in the same order).
    baseline:
        Method whose averages define the ratio row (defaults to the
        first method), mirroring Table 2's "Ratio" row against ILT [7].
    """
    methods = list(columns)
    if not methods:
        raise ValueError("no methods to compare")
    count = len(columns[methods[0]])
    for method in methods:
        if len(columns[method]) != count:
            raise ValueError("methods cover different clip counts")
    baseline = baseline or methods[0]
    if baseline not in columns:
        raise ValueError(f"unknown baseline {baseline!r}")

    header_parts = ["clip".ljust(12)]
    for method in methods:
        header_parts.append(f"{method:>12}.L2 {method:>12}.PVB {method:>10}.RT")
    lines = ["  ".join(header_parts)]

    for i in range(count):
        parts = [columns[methods[0]][i].name.ljust(12)]
        for method in methods:
            ev = columns[method][i]
            rt = f"{ev.runtime_seconds:10.2f}" if ev.runtime_seconds is not None \
                else " " * 10
            parts.append(f"{ev.l2_nm2:15.0f} {ev.pvband_nm2:16.0f} {rt}")
        lines.append("  ".join(parts))

    def _avg(method: str, attr: str) -> float:
        values = [getattr(ev, attr) for ev in columns[method]]
        values = [v for v in values if v is not None]
        return float(np.mean(values)) if values else float("nan")

    avg_parts = ["average".ljust(12)]
    ratio_parts = ["ratio".ljust(12)]
    for method in methods:
        l2 = _avg(method, "l2_nm2")
        pvb = _avg(method, "pvband_nm2")
        rt = _avg(method, "runtime_seconds")
        avg_parts.append(f"{l2:15.1f} {pvb:16.1f} {rt:10.2f}")
        base_l2 = _avg(baseline, "l2_nm2")
        base_pvb = _avg(baseline, "pvband_nm2")
        base_rt = _avg(baseline, "runtime_seconds")
        ratio_parts.append(
            f"{l2 / base_l2:15.3f} {pvb / base_pvb:16.3f} {rt / base_rt:10.3f}")
    lines.append("  ".join(avg_parts))
    lines.append("  ".join(ratio_parts))
    return "\n".join(lines)
