"""Edge placement error (EPE) measurement (Figure 2 of the paper).

EPE measures the horizontal or vertical distance from OPC control
points on target polygon edges to the printed lithography contour.  A
measurement point *violates* when the |EPE| exceeds a threshold (10 nm
by the ICCAD-2013 contest convention for 32 nm M1).

As Figure 2 illustrates, EPE alone is an incomplete printability
metric — the violation count depends on where control points are placed
and misses neck/bridge defects (handled in
:mod:`repro.metrics.defects`); the paper therefore optimizes squared
L2.  EPE is still reported because downstream users expect it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..geometry.layout import Layout
from ..geometry.shapes import Rect


@dataclass(frozen=True)
class EPESample:
    """One control-point measurement.

    Attributes
    ----------
    x, y:
        Control-point position in nm (on a target edge).
    normal:
        Outward edge normal, one of ``(+1,0), (-1,0), (0,+1), (0,-1)``.
    epe:
        Signed displacement in nm of the printed contour along the
        outward normal (positive = printed pattern extends beyond the
        target edge); ``inf`` when no contour was found in range.
    """

    x: float
    y: float
    normal: Tuple[int, int]
    epe: float

    def violates(self, threshold: float) -> bool:
        return abs(self.epe) > threshold


@dataclass(frozen=True)
class EPEReport:
    """All control-point measurements of a clip plus the violation count."""

    samples: List[EPESample]
    threshold: float

    @property
    def violations(self) -> int:
        return sum(1 for s in self.samples if s.violates(self.threshold))

    @property
    def max_abs_epe(self) -> float:
        finite = [abs(s.epe) for s in self.samples if np.isfinite(s.epe)]
        return max(finite) if finite else float("inf")

    def hotspots(self, limit: Optional[int] = None) -> List[dict]:
        """Violating control points as ``{x, y, epe}`` dicts (nm).

        Sorted worst-first by |EPE| (non-finite EPEs — no contour found
        within the search range — sort ahead of every finite one), so a
        truncated list keeps the worst sites.  This is the payload of
        ``clip_result`` telemetry records and the HTML report's
        hotspot overlay.
        """
        violating = sorted(
            (s for s in self.samples if s.violates(self.threshold)),
            key=lambda s: (1, -abs(s.epe)) if np.isfinite(s.epe)
            else (0, 0.0))
        if limit is not None:
            violating = violating[:limit]
        return [{"x": float(s.x), "y": float(s.y), "epe": float(s.epe)}
                for s in violating]


def control_points(rect: Rect, spacing: float,
                   edge_margin: float) -> List[Tuple[float, float, Tuple[int, int]]]:
    """OPC control points along a rectangle's edges.

    Points are placed every ``spacing`` nm along each edge, inset by
    ``edge_margin`` from corners (corner rounding would otherwise
    dominate the measurement); short edges get a single midpoint sample.
    """
    points: List[Tuple[float, float, Tuple[int, int]]] = []

    def _axis_samples(lo: float, hi: float) -> List[float]:
        usable = hi - lo - 2.0 * edge_margin
        if usable <= 0:
            return [0.5 * (lo + hi)]
        # Enough points that adjacent samples are at most `spacing` apart.
        count = max(int(np.ceil(usable / spacing)) + 1, 2)
        return list(np.linspace(lo + edge_margin, hi - edge_margin, count))

    for x in _axis_samples(rect.x0, rect.x1):
        points.append((x, rect.y0, (0, -1)))  # bottom edge, outward -y
        points.append((x, rect.y1, (0, +1)))  # top edge, outward +y
    for y in _axis_samples(rect.y0, rect.y1):
        points.append((rect.x0, y, (-1, 0)))  # left edge, outward -x
        points.append((rect.x1, y, (+1, 0)))  # right edge, outward +x
    return points


def measure_epe(wafer: np.ndarray, layout: Layout, threshold: float = 10.0,
                spacing: float = 40.0, edge_margin: float = 10.0,
                search_range: float = 80.0) -> EPEReport:
    """Measure EPE of a binary wafer image against a layout's edges.

    Parameters
    ----------
    wafer:
        Binary wafer image on the layout's window grid.
    layout:
        Target clip (vector geometry gives exact edge positions).
    threshold:
        Violation threshold in nm.
    spacing:
        Control-point spacing along edges in nm.
    edge_margin:
        Corner inset in nm.
    search_range:
        How far (nm) to scan along the normal for the printed contour.
    """
    wafer = np.asarray(wafer) > 0.5
    pixel = layout.extent / wafer.shape[0]
    points = [point for rect in layout.rects
              for point in control_points(rect, spacing, edge_margin)]
    offsets = _contour_offsets(wafer, points, pixel, search_range)
    samples = [EPESample(x=x, y=y, normal=normal, epe=float(epe))
               for (x, y, normal), epe in zip(points, offsets)]
    return EPEReport(samples=samples, threshold=threshold)


def _contour_offsets(wafer: np.ndarray,
                     points: List[Tuple[float, float, Tuple[int, int]]],
                     pixel: float, search_range: float) -> np.ndarray:
    """Signed distance from each edge point to the wafer contour along
    its outward normal (positive outward), one gather for all points.

    A point whose pixel just inside the edge prints has its contour at
    ``k`` pixels, the first ``k`` whose probe at ``(k + 0.5)`` pixels
    outward is OFF (``+inf`` if none within range); otherwise at ``-k``
    pixels, the first ``k >= 1`` whose probe ``(k + 0.5)`` pixels inward
    is ON (``-inf`` if none).  A probe maps to the pixel ``int()`` of its
    coordinates, which truncates toward zero, and probes off the grid
    read OFF.
    """
    grid = wafer.shape[0]
    steps = max(int(search_range / pixel), 1)
    k = np.arange(steps + 1)
    # Probe 0 is just inside the edge, probes 1..steps+1 walk outward
    # (k = 0..steps) and the rest walk inward (k = 1..steps).
    offsets = np.concatenate(([-0.5 * pixel], (k + 0.5) * pixel,
                              -((k[1:] + 0.5) * pixel)))
    position = np.array([(x, y) for x, y, _ in points],
                        dtype=float).reshape(-1, 2, 1)
    normal = np.array([normal for _, _, normal in points],
                      dtype=float).reshape(-1, 2, 1)
    index = np.trunc((position + normal * offsets) / pixel)
    inside = ((index >= 0) & (index < grid)).all(axis=1)
    on = np.zeros(inside.shape, dtype=bool)
    rows, cols = index[:, 1][inside], index[:, 0][inside]
    on[inside] = wafer[rows.astype(np.intp), cols.astype(np.intp)]
    outward_off = ~on[:, 1:steps + 2]
    inward_on = on[:, steps + 2:]
    out = np.where(outward_off.any(axis=1),
                   outward_off.argmax(axis=1) * pixel, np.inf)
    back = np.where(inward_on.any(axis=1),
                    -(inward_on.argmax(axis=1) + 1) * pixel, -np.inf)
    return np.where(on[:, 0], out, back)
