"""ICCAD-2013-contest-substitute benchmark clips.

The paper evaluates on the ten industrial 32 nm M1 clips of the ICCAD
2013 mask-optimization contest [23].  Those clips (and the contest's
``lithosim_v4``) are not redistributable, so this module synthesizes a
deterministic stand-in suite with matched *structure*:

* ten clips named ``iccad13-01`` .. ``iccad13-10``;
* pattern (union) areas matched to Table 2's "Area" column, scaled by
  ``(window / 2048 nm)^2`` so any simulation grid preserves relative
  clip difficulty;
* shapes drawn under the same Table 1 design rules as the training
  library but from a *disjoint* seed universe (the GAN never trains on
  benchmark clips).

:data:`PAPER_TABLE2` records the paper's reported numbers for
EXPERIMENTS.md-style paper-vs-measured comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..geometry.layout import Layout
from ..geometry.shapes import Rect
from ..layoutgen.topology import LayoutSynthesizer, TopologyConfig
from ..litho.config import LithoConfig

#: Paper Table 2, per clip: pattern area and the reported metrics of the
#: three methods (L2 and PVB in nm^2, runtime in seconds).
PAPER_TABLE2: Dict[str, Dict] = {
    "iccad13-01": {"area": 215344, "ilt": (49893, 65534, 1280), "gan": (54970, 64163, 380), "pgan": (52570, 56267, 358)},
    "iccad13-02": {"area": 169280, "ilt": (50369, 48230, 381), "gan": (46445, 56731, 374), "pgan": (42253, 50822, 368)},
    "iccad13-03": {"area": 213504, "ilt": (81007, 108608, 1123), "gan": (88899, 84308, 379), "pgan": (83663, 94498, 368)},
    "iccad13-04": {"area": 82560, "ilt": (20044, 28285, 1271), "gan": (18290, 29245, 376), "pgan": (19965, 28957, 377)},
    "iccad13-05": {"area": 281958, "ilt": (44656, 58835, 1120), "gan": (42835, 59727, 378), "pgan": (44733, 59328, 369)},
    "iccad13-06": {"area": 286234, "ilt": (57375, 48739, 391), "gan": (44313, 52627, 367), "pgan": (46062, 52845, 364)},
    "iccad13-07": {"area": 229149, "ilt": (37221, 43490, 406), "gan": (24481, 47652, 377), "pgan": (26438, 47981, 377)},
    "iccad13-08": {"area": 128544, "ilt": (19782, 22846, 388), "gan": (17399, 23769, 394), "pgan": (17690, 23564, 383)},
    "iccad13-09": {"area": 317581, "ilt": (55399, 66331, 1138), "gan": (53637, 66766, 427), "pgan": (56125, 65417, 383)},
    "iccad13-10": {"area": 102400, "ilt": (24381, 18097, 387), "gan": (9677, 20693, 395), "pgan": (9990, 19893, 366)},
}

#: Paper Table 2 averages: (L2, PVB, RT) per method.
PAPER_AVERAGES = {
    "ilt": (44012.7, 50899.5, 788.5),
    "gan": (40094.6, 50568.1, 384.7),
    "pgan": (39948.9, 49957.2, 371.3),
}

#: Window side (nm) the contest areas are referenced to.
PAPER_WINDOW_NM = 2048.0


@dataclass(frozen=True)
class BenchmarkClip:
    """One substitute benchmark case."""

    name: str
    layout: Layout
    target_area: float

    @property
    def area_error(self) -> float:
        """Relative deviation of the synthesized union area from the
        scaled Table 2 area."""
        return abs(self.layout.pattern_area - self.target_area) / self.target_area


def scaled_area(clip_id: int, window_nm: float) -> float:
    """Table 2 pattern area scaled to a ``window_nm`` clip window."""
    name = f"iccad13-{clip_id:02d}"
    area = PAPER_TABLE2[name]["area"]
    factor = (window_nm / PAPER_WINDOW_NM) ** 2
    return area * factor


def make_clip(clip_id: int, litho_config: Optional[LithoConfig] = None,
              tolerance: float = 0.1) -> BenchmarkClip:
    """Synthesize substitute clip ``clip_id`` (1-10) for a litho config.

    The generator is run at moderate density, then shapes are removed /
    the last shape trimmed until the union area matches the scaled
    Table 2 area within ``tolerance``.
    """
    if not 1 <= clip_id <= 10:
        raise ValueError(f"clip_id must be 1..10, got {clip_id}")
    litho_config = litho_config or LithoConfig.paper()
    window = litho_config.extent_nm
    target_area = scaled_area(clip_id, window)
    name = f"iccad13-{clip_id:02d}"

    topo = TopologyConfig(extent=window,
                          margin=min(120.0, window / 8.0),
                          track_skip_probability=0.1,
                          stub_probability=0.2)
    synthesizer = LayoutSynthesizer(topo)
    rng = np.random.default_rng(np.random.SeedSequence([2013_0000, clip_id]))

    layout = synthesizer.generate(rng, name=name)
    layout = _match_area(layout, target_area, rng, topo)
    clip = BenchmarkClip(name=name, layout=layout, target_area=target_area)
    return clip


def iccad13_suite(litho_config: Optional[LithoConfig] = None,
                  tolerance: float = 0.1) -> List[BenchmarkClip]:
    """The full ten-clip substitute suite."""
    return [make_clip(i, litho_config, tolerance) for i in range(1, 11)]


# ----------------------------------------------------------------------
def _match_area(layout: Layout, target_area: float,
                rng: np.random.Generator,
                topo: TopologyConfig) -> Layout:
    """Shrink shapes until the union area approximates the target.

    Wire run-lengths are scaled by a global factor found by bisection,
    which preserves the clip's shape *count* and structure (unlike
    dropping shapes).  Trims are anchored at ends that touch another
    shape so L/T junctions stay connected.  If even fully shortened
    wires exceed the target, whole shapes are dropped and the bisection
    retried.
    """
    min_len = topo.rules.critical_dimension
    rects = sorted(layout.rects, key=lambda r: -r.area)

    while True:
        anchors = _trim_anchors(rects)
        area_min = _shrunk_area(layout.extent, rects, anchors, 0.0, min_len)
        if area_min <= target_area or len(rects) == 1:
            break
        rects = rects[:-1]  # drop the smallest shape and retry

    # Bisect the length factor in [0, 1]; monotone in union area.
    lo, hi = 0.0, 1.0
    anchors = _trim_anchors(rects)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _shrunk_area(layout.extent, rects, anchors, mid, min_len) > target_area:
            hi = mid
        else:
            lo = mid
    factor = lo
    final = _shrink_rects(rects, anchors, factor, min_len)
    return Layout(extent=layout.extent, rects=final, name=layout.name)


def _trim_anchors(rects: List[Rect]) -> List[str]:
    """Per rect, which end to preserve while trimming.

    ``"lo"``/``"hi"`` anchor the rect's low/high run-direction end
    (because a neighbor touches there); ``"center"`` trims both ends.
    """
    anchors: List[str] = []
    for i, rect in enumerate(rects):
        lo_touch = hi_touch = False
        for j, other in enumerate(rects):
            if i == j or not rect.touches(other):
                continue
            ox, oy = other.center
            cx, cy = rect.center
            along = ox - cx if rect.is_horizontal else oy - cy
            if along < 0:
                lo_touch = True
            else:
                hi_touch = True
        if lo_touch and not hi_touch:
            anchors.append("lo")
        elif hi_touch and not lo_touch:
            anchors.append("hi")
        else:
            anchors.append("center")
    return anchors


def _shrink_rects(rects: List[Rect], anchors: List[str], factor: float,
                  min_len: float) -> List[Rect]:
    """Scale each rect's run length by ``factor`` (floor ``min_len``)."""
    out: List[Rect] = []
    for rect, anchor in zip(rects, anchors):
        length = rect.width if rect.is_horizontal else rect.height
        new_len = max(length * factor, min(min_len, length))
        if rect.is_horizontal:
            if anchor == "lo":
                x0, x1 = rect.x0, rect.x0 + new_len
            elif anchor == "hi":
                x0, x1 = rect.x1 - new_len, rect.x1
            else:
                cx = 0.5 * (rect.x0 + rect.x1)
                x0, x1 = cx - new_len / 2.0, cx + new_len / 2.0
            out.append(Rect(x0, rect.y0, x1, rect.y1))
        else:
            if anchor == "lo":
                y0, y1 = rect.y0, rect.y0 + new_len
            elif anchor == "hi":
                y0, y1 = rect.y1 - new_len, rect.y1
            else:
                cy = 0.5 * (rect.y0 + rect.y1)
                y0, y1 = cy - new_len / 2.0, cy + new_len / 2.0
            out.append(Rect(rect.x0, y0, rect.x1, y1))
    return out


def _shrunk_area(extent: float, rects: List[Rect], anchors: List[str],
                 factor: float, min_len: float) -> float:
    return Layout(extent=extent,
                  rects=_shrink_rects(rects, anchors, factor, min_len)
                  ).pattern_area
