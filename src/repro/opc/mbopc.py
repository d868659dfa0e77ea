"""Model-based OPC: iterative edge-segment correction.

The conventional flow of Figure 1: fracture target edges into
fragments, simulate, measure the edge placement error at every
fragment's control point, and shift each fragment along its normal to
compensate — repeating until EPEs settle.  This is the segment-based
correction style of [3-5]/[14]; it serves as the conventional baseline
of the ablation benchmarks (the paper's motivation is that such flows
are "highly restricted by their solution space").

Masks are assembled by rasterizing the target shapes plus per-fragment
displacement strips (grow outward / erase inward).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..geometry.layout import Layout
from ..geometry.raster import rasterize
from ..litho.config import LithoConfig
from ..litho.engine import LithoEngine
from ..litho.kernels import KernelSet, build_kernels
from ..metrics.epe import _contour_offset
from ..metrics.l2 import squared_l2
from .fragments import EdgeSegment, fragment_layout


@dataclass(frozen=True)
class MbOpcConfig:
    """Hyper-parameters of the model-based OPC loop.

    Attributes
    ----------
    iterations:
        Correction rounds.
    max_fragment:
        Edge fragmentation pitch in nm.
    gain:
        Fraction of the measured EPE compensated per round (damped
        feedback; 1.0 would fully trust a linear model).
    max_offset:
        Displacement clamp in nm (keeps fragments within the
        "restricted solution space" of real MB-OPC).
    search_range:
        EPE contour search range in nm.
    """

    iterations: int = 8
    max_fragment: float = 40.0
    gain: float = 0.6
    max_offset: float = 40.0
    search_range: float = 80.0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.gain <= 0 or self.gain > 1.5:
            raise ValueError("gain must be in (0, 1.5]")
        if self.max_offset <= 0:
            raise ValueError("max_offset must be positive")


@dataclass
class MbOpcResult:
    """Outcome of a model-based OPC run."""

    mask: np.ndarray
    segments: List[EdgeSegment]
    l2: float
    l2_history: List[float] = field(default_factory=list)
    runtime_seconds: float = 0.0


class ModelBasedOPC:
    """Segment-movement OPC over the litho engine."""

    def __init__(self, litho_config: Optional[LithoConfig] = None,
                 config: Optional[MbOpcConfig] = None,
                 kernels: Optional[KernelSet] = None):
        self.litho_config = litho_config or LithoConfig.paper()
        self.config = config or MbOpcConfig()
        self.engine = LithoEngine.for_kernels(
            kernels or build_kernels(self.litho_config))

    # ------------------------------------------------------------------
    def mask_from_segments(self, layout: Layout,
                           segments: List[EdgeSegment]) -> np.ndarray:
        """Rasterize the corrected mask: target shapes, plus outward
        strips, minus inward strips."""
        grid = self.litho_config.grid
        base = rasterize(layout, grid)
        grow = Layout(extent=layout.extent)
        shrink = Layout(extent=layout.extent)
        window = layout.window
        for segment in segments:
            if segment.offset == 0.0:
                continue
            strip = segment.moved_strip()
            try:
                strip = strip.intersection(window)
            except ValueError:
                continue  # displaced fully outside the window
            if segment.offset > 0:
                grow.rects.append(strip)
            else:
                shrink.rects.append(strip)
        mask = base + rasterize(grow, grid) - rasterize(shrink, grid)
        return (np.clip(mask, 0.0, 1.0) >= 0.5).astype(float)

    def measure_segment_epes(self, wafer: np.ndarray, layout: Layout,
                             segments: List[EdgeSegment]) -> np.ndarray:
        """Signed EPE at each fragment's control point (nm); non-finite
        measurements (contour out of range) are returned as +/- range."""
        pixel = layout.extent / wafer.shape[0]
        epes = np.zeros(len(segments))
        limit = self.config.search_range
        for i, segment in enumerate(segments):
            x, y = segment.midpoint
            epe = _contour_offset(wafer > 0.5, x, y, segment.normal, pixel,
                                  self.config.search_range)
            if not np.isfinite(epe):
                epe = limit if epe > 0 else -limit
            epes[i] = epe
        return epes

    # ------------------------------------------------------------------
    def optimize(self, layout: Layout) -> MbOpcResult:
        """Run the correction loop on a layout clip."""
        cfg = self.config
        start = time.perf_counter()
        segments = fragment_layout(layout, cfg.max_fragment)
        target = (rasterize(layout, self.litho_config.grid) >= 0.5).astype(float)

        best_mask = target
        best_l2 = squared_l2(self.engine.wafer(target), target)
        history = [best_l2]

        for _ in range(cfg.iterations):
            mask = self.mask_from_segments(layout, segments)
            wafer = self.engine.wafer(mask)
            l2 = squared_l2(wafer, target)
            history.append(l2)
            if l2 < best_l2:
                best_l2, best_mask = l2, mask
            epes = self.measure_segment_epes(wafer, layout, segments)
            # Negative feedback: printed edge beyond target (epe > 0)
            # pulls the fragment inward, pull-back pushes it outward.
            segments = [
                seg.with_offset(float(np.clip(seg.offset - cfg.gain * epe,
                                              -cfg.max_offset, cfg.max_offset)))
                for seg, epe in zip(segments, epes)
            ]

        return MbOpcResult(mask=best_mask, segments=segments, l2=best_l2,
                           l2_history=history,
                           runtime_seconds=time.perf_counter() - start)
