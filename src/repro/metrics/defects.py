"""Neck and bridge defect detectors (Figure 2 of the paper).

* A **neck** is a printed wire whose local critical dimension shrinks
  below a fraction of the drawn CD — a resistance/open risk that EPE
  checking at sparse control points can miss.
* A **bridge** is printed material connecting two patterns that are
  distinct in the target — an electrical short.

Both detectors work on binary raster images: components are labeled
with 4-connectivity (:func:`_label_components`); neck detection scans
run-lengths through printed pixels in both axes.  Figure 9 of the paper
uses exactly these failure modes to explain why the ILT baseline's
smaller PV band can hide bridge / line-end pull-back defects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class NeckDefect:
    """A local CD violation on a printed wire.

    ``row``/``col`` locate a representative pixel (raster indices);
    ``width_px`` is the offending run length; ``axis`` is 0 when the
    narrow direction is vertical (short column run) and 1 when
    horizontal.
    """

    row: int
    col: int
    width_px: int
    axis: int


@dataclass(frozen=True)
class BridgeDefect:
    """Printed material shorting distinct target components.

    ``component_labels`` are the target component ids that the printed
    blob touches; ``pixels`` is the blob's size in raster pixels.
    """

    component_labels: Tuple[int, ...]
    pixels: int


def detect_necks(wafer: np.ndarray, target: np.ndarray,
                 min_width_px: int) -> List[NeckDefect]:
    """Find printed runs narrower than ``min_width_px`` on target wires.

    For every printed pixel that belongs to a target pattern, the
    horizontal and vertical run lengths through it are computed; a pixel
    whose *minimum* run is shorter than ``min_width_px`` marks a neck.
    Adjacent violating pixels are merged into a single defect via
    connected-component labeling.
    """
    wafer = np.asarray(wafer) > 0.5
    target = np.asarray(target) > 0.5
    if wafer.shape != target.shape:
        raise ValueError("wafer/target shape mismatch")
    if min_width_px < 1:
        raise ValueError("min_width_px must be >= 1")

    runs_h = _run_lengths(wafer, axis=1)
    runs_v = _run_lengths(wafer, axis=0)
    narrow_axis = np.where(runs_h <= runs_v, 1, 0)
    narrow = np.minimum(runs_h, runs_v)
    violating = wafer & target & (narrow < min_width_px)
    labels, count = _label_components(violating)
    defects: List[NeckDefect] = []
    for label in range(1, count + 1):
        rows, cols = np.nonzero(labels == label)
        # Representative pixel: the narrowest point of the region.
        widths = narrow[rows, cols]
        pick = int(np.argmin(widths))
        defects.append(NeckDefect(row=int(rows[pick]), col=int(cols[pick]),
                                  width_px=int(widths[pick]),
                                  axis=int(narrow_axis[rows[pick], cols[pick]])))
    return defects


def detect_bridges(wafer: np.ndarray, target: np.ndarray) -> List[BridgeDefect]:
    """Find printed blobs connecting >= 2 distinct target components."""
    wafer = np.asarray(wafer) > 0.5
    target = np.asarray(target) > 0.5
    if wafer.shape != target.shape:
        raise ValueError("wafer/target shape mismatch")

    target_labels, _ = _label_components(target)
    wafer_labels, wafer_count = _label_components(wafer)
    defects: List[BridgeDefect] = []
    for label in range(1, wafer_count + 1):
        blob = wafer_labels == label
        touched = np.unique(target_labels[blob])
        touched = tuple(int(t) for t in touched if t != 0)
        if len(touched) >= 2:
            defects.append(BridgeDefect(component_labels=touched,
                                        pixels=int(blob.sum())))
    return defects


def _run_lengths(image: np.ndarray, axis: int) -> np.ndarray:
    """Per-pixel length of the ON-run containing each pixel along
    ``axis``; 0 for OFF pixels."""
    image = np.asarray(image, dtype=bool)
    if axis == 0:
        image = image.T
    rows, cols = image.shape
    padded = np.zeros((rows, cols + 2), dtype=np.int8)
    padded[:, 1:-1] = image
    # +1 where a run starts, -1 one past where it ends.  Runs never
    # cross a row, so starts and ends pair up in raster order and the
    # distance between their flat indices is the run length.
    steps = np.diff(padded, axis=1).ravel()
    lengths = np.flatnonzero(steps == -1) - np.flatnonzero(steps == 1)
    out = np.zeros((rows, cols), dtype=int)
    # ON pixels in raster order are the runs' pixels, run after run.
    out[image] = np.repeat(lengths, lengths)
    if axis == 0:
        out = out.T
    return out


def _label_components(image: np.ndarray) -> Tuple[np.ndarray, int]:
    """4-connected components of a binary image: ``(labels, count)``.

    Background is 0 and the components are numbered ``1..count`` in
    raster order of each component's first pixel, as
    ``scipy.ndimage.label`` numbers them.  Union-find over the
    horizontal runs, numbered in raster order: every pair of runs that
    touch vertically hooks the larger of their two roots onto the
    smaller, then pointer jumping compresses every path, until no pair
    joins two roots.  Roots only ever move to smaller numbers, so each
    component ends rooted at its first run, whose start is its first
    pixel.
    """
    image = np.asarray(image, dtype=bool)
    rows, cols = image.shape
    starts = image.copy()
    starts[:, 1:] &= ~image[:, :-1]
    run_of = np.cumsum(starts) - 1
    # One pair per two touching runs: the first column of each stretch
    # where a row and the row below are both ON.
    both = image[:-1] & image[1:]
    stretch = both.copy()
    stretch[:, 1:] &= ~both[:, :-1]
    upper = np.flatnonzero(stretch)
    first, second = run_of[upper], run_of[upper + cols]
    root = np.arange(np.count_nonzero(starts))
    while True:
        a, b = root[first], root[second]
        apart = a != b
        if not apart.any():
            break
        a, b = a[apart], b[apart]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root = jumped
            jumped = root[root]
    is_root = root == np.arange(root.size)
    on = image.ravel()
    labels = np.zeros(rows * cols, dtype=int)
    labels[on] = np.cumsum(is_root)[root][run_of[on]]
    return labels.reshape(rows, cols), int(np.count_nonzero(is_root))
