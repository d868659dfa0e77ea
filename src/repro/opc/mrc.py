"""Mask rule checking (MRC) and cleanup for pixel-based masks.

Pixel-based ILT produces free-form masks; before a mask can be
manufactured it must satisfy *mask rules* — minimum feature width,
minimum space, no sub-resolution islands or pinholes the mask writer
cannot form.  The GAN-OPC paper (like MOSAIC [7]) leaves this to the
downstream flow; this module provides the standard raster-level checks
and a conservative cleanup pass so optimized masks can be legalized:

* :func:`check_mask` — count min-width / min-space / island / pinhole
  violations;
* :func:`cleanup_mask` — drop islands below the writable size and fill
  pinholes, the two violation classes that can be fixed without moving
  pattern edges.

The test suite verifies that cleanup never *increases* the lithography
error materially (sub-resolution islands barely expose anyway).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics.defects import _label_components, _run_lengths


@dataclass(frozen=True)
class MrcConfig:
    """Mask manufacturing rules in nm.

    Attributes
    ----------
    min_feature:
        Narrowest mask feature the writer can form.
    min_space:
        Narrowest gap between mask features.
    min_area:
        Smallest connected feature area; islands below it are
        unwritable.
    """

    min_feature: float = 32.0
    min_space: float = 32.0
    min_area: float = 1600.0

    def __post_init__(self):
        if min(self.min_feature, self.min_space, self.min_area) <= 0:
            raise ValueError("all mask rules must be positive")


@dataclass(frozen=True)
class MrcReport:
    """Violation counts of one mask."""

    width_violations: int
    space_violations: int
    small_islands: int
    pinholes: int

    @property
    def total(self) -> int:
        return (self.width_violations + self.space_violations
                + self.small_islands + self.pinholes)

    @property
    def clean(self) -> bool:
        return self.total == 0


def check_mask(mask: np.ndarray, pixel_nm: float,
               config: MrcConfig = MrcConfig()) -> MrcReport:
    """Run all mask rule checks on a binary mask raster."""
    mask = np.asarray(mask) > 0.5
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
    if pixel_nm <= 0:
        raise ValueError("pixel_nm must be positive")

    feature_px = max(int(np.ceil(config.min_feature / pixel_nm)), 1)
    space_px = max(int(np.ceil(config.min_space / pixel_nm)), 1)
    area_px = max(int(np.ceil(config.min_area / (pixel_nm * pixel_nm))), 1)

    width_violations = _narrow_regions(mask, feature_px)
    space_violations = _narrow_spaces(mask, space_px)

    labels, count = _label_components(mask)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)[1:]
    small_islands = int(np.count_nonzero(sizes < area_px))

    # Pinholes: background components fully enclosed by mask, below the
    # minimum area.
    holes, hole_count = _label_components(~mask)
    pinholes = 0
    for label in range(1, hole_count + 1):
        region = holes == label
        if _touches_border(region):
            continue
        if region.sum() < area_px:
            pinholes += 1

    return MrcReport(width_violations=width_violations,
                     space_violations=space_violations,
                     small_islands=small_islands, pinholes=pinholes)


def cleanup_mask(mask: np.ndarray, pixel_nm: float,
                 config: MrcConfig = MrcConfig()) -> np.ndarray:
    """Remove unwritable islands and fill pinholes.

    Width/space violations are left alone — fixing them moves edges,
    which trades printability and belongs to the optimizer, not a
    post-pass.
    """
    mask = (np.asarray(mask) > 0.5)
    area_px = max(int(np.ceil(config.min_area / (pixel_nm * pixel_nm))), 1)

    cleaned = mask.copy()
    labels, count = _label_components(cleaned)
    for label in range(1, count + 1):
        region = labels == label
        if region.sum() < area_px:
            cleaned[region] = False

    holes, hole_count = _label_components(~cleaned)
    for label in range(1, hole_count + 1):
        region = holes == label
        if _touches_border(region):
            continue
        if region.sum() < area_px:
            cleaned[region] = True
    return cleaned.astype(float)


def _narrow_regions(image: np.ndarray, min_px: int) -> int:
    """Connected regions of pixels whose min run length < ``min_px``."""
    runs_h = _run_lengths(image, axis=1)
    runs_v = _run_lengths(image, axis=0)
    narrow = image & (np.minimum(runs_h, runs_v) < min_px)
    _, count = _label_components(narrow)
    return int(count)


def _narrow_spaces(mask: np.ndarray, min_px: int) -> int:
    """Gaps between features narrower than ``min_px``.

    A background run counts as a *space* only when it is bounded by
    mask features on both ends — background extending to the raster
    border is the clip surround, not a gap.
    """
    narrow = (_bounded_short_runs(mask, min_px, axis=1)
              | _bounded_short_runs(mask, min_px, axis=0))
    _, count = _label_components(narrow)
    return int(count)


def _bounded_short_runs(mask: np.ndarray, min_px: int,
                        axis: int) -> np.ndarray:
    """Mark background pixels in feature-bounded runs shorter than
    ``min_px`` along ``axis``."""
    work = mask if axis == 1 else mask.T
    out = np.zeros_like(work, dtype=bool)
    width = work.shape[1]
    background = ~work
    for row_index in range(work.shape[0]):
        row = background[row_index]
        padded = np.concatenate(([0], row.view(np.int8), [0]))
        changes = np.diff(padded.astype(np.int8))
        starts = np.nonzero(changes == 1)[0]
        ends = np.nonzero(changes == -1)[0]
        for start, end in zip(starts, ends):
            if start == 0 or end == width:
                continue  # touches the raster border
            if end - start < min_px:
                out[row_index, start:end] = True
    return out if axis == 1 else out.T


def _touches_border(region: np.ndarray) -> bool:
    return bool(region[0, :].any() or region[-1, :].any()
                or region[:, 0].any() or region[:, -1].any())
