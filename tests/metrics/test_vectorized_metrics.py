"""The vectorized EPE and defect detectors against their loop forms.

``measure_epe`` gathers every control point's probes at once, and the
neck and bridge detectors group components with one sort or one
``np.unique``.  The loops they replaced are kept here as references;
samples (position, normal, EPE value and type) and defect lists must
match them exactly.
"""

import numpy as np
import pytest

from repro.bench.iccad13 import make_clip
from repro.geometry import Layout, Rect, binarize, rasterize
from repro.litho import LithoConfig
from repro.metrics import detect_bridges, detect_necks, measure_epe
from repro.metrics.defects import (BridgeDefect, NeckDefect,
                                   _label_components, _run_lengths)
from repro.metrics.epe import EPESample, control_points

GRID = 64


def _loop_epe(wafer, layout, spacing=40.0, edge_margin=10.0,
              search_range=80.0):
    """One probe at a time along each point's normal."""
    wafer = np.asarray(wafer) > 0.5
    grid = wafer.shape[0]
    pixel = layout.extent / grid
    steps = max(int(search_range / pixel), 1)

    def offset(x, y, normal):
        def sample(offset_nm):
            col = int((x + normal[0] * offset_nm) / pixel)
            row = int((y + normal[1] * offset_nm) / pixel)
            return 0 <= row < grid and 0 <= col < grid and bool(
                wafer[row, col])

        if sample(-0.5 * pixel):
            for k in range(steps + 1):
                if not sample((k + 0.5) * pixel):
                    return k * pixel
            return float("inf")
        for k in range(1, steps + 1):
            if sample(-(k + 0.5) * pixel):
                return -k * pixel
        return float("-inf")

    return [EPESample(x=x, y=y, normal=normal, epe=offset(x, y, normal))
            for rect in layout.rects
            for x, y, normal in control_points(rect, spacing, edge_margin)]


def _loop_necks(wafer, target, min_width_px):
    wafer, target = np.asarray(wafer) > 0.5, np.asarray(target) > 0.5
    runs_h = _run_lengths(wafer, axis=1)
    runs_v = _run_lengths(wafer, axis=0)
    narrow_axis = np.where(runs_h <= runs_v, 1, 0)
    narrow = np.minimum(runs_h, runs_v)
    labels, count = _label_components(wafer & target
                                      & (narrow < min_width_px))
    defects = []
    for label in range(1, count + 1):
        rows, cols = np.nonzero(labels == label)
        widths = narrow[rows, cols]
        pick = int(np.argmin(widths))
        defects.append(NeckDefect(
            row=int(rows[pick]), col=int(cols[pick]),
            width_px=int(widths[pick]),
            axis=int(narrow_axis[rows[pick], cols[pick]])))
    return defects


def _loop_bridges(wafer, target):
    wafer, target = np.asarray(wafer) > 0.5, np.asarray(target) > 0.5
    target_labels, _ = _label_components(target)
    wafer_labels, wafer_count = _label_components(wafer)
    defects = []
    for label in range(1, wafer_count + 1):
        blob = wafer_labels == label
        touched = tuple(int(t) for t in np.unique(target_labels[blob])
                        if t != 0)
        if len(touched) >= 2:
            defects.append(BridgeDefect(component_labels=touched,
                                        pixels=int(blob.sum())))
    return defects


def _blur(image, passes):
    for _ in range(passes):
        image = (image + np.roll(image, 1, 0) + np.roll(image, -1, 0)
                 + np.roll(image, 1, 1) + np.roll(image, -1, 1)) / 5.0
    return image


def _smoothed_wafers(target, rng, count):
    """Wafers between the target and smoothed random blobs: swollen,
    shrunk, bridged and necked shapes, specks and holes."""
    for _ in range(count):
        noise = _blur(rng.random(target.shape), int(rng.integers(2, 8)))
        noise = 0.25 * (noise - noise.mean()) / noise.std()
        weight = rng.uniform(0.0, 1.0)
        field = weight * _blur(target, 1) + (1.0 - weight) * noise
        level = np.quantile(field, rng.uniform(0.3, 0.9))
        yield (field > level).astype(float)


def _suite_cases():
    for clip_id in range(1, 11):
        layout = make_clip(clip_id, LithoConfig.small(GRID)).layout
        target = binarize(rasterize(layout, GRID))
        rng = np.random.default_rng(clip_id)
        for wafer in [target, *_smoothed_wafers(target, rng, 3)]:
            yield wafer, target, layout


def _assert_epe_matches(wafer, layout):
    got = measure_epe(wafer, layout).samples
    want = _loop_epe(wafer, layout)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.x, g.y, g.normal) == (w.x, w.y, w.normal)
        assert g.epe == w.epe and type(g.epe) is type(w.epe)


def _assert_all_match(wafer, target, layout):
    _assert_epe_matches(wafer, layout)
    for min_width in (2, 4):
        assert detect_necks(wafer, target, min_width) == \
            _loop_necks(wafer, target, min_width)
    assert detect_bridges(wafer, target) == _loop_bridges(wafer, target)


def test_suite_clips_with_random_wafers():
    """Ten suite clips, each with its own print and three random wafers.
    The cases reach every branch: bridges, necks, and EPEs of both
    signs, zero, and infinite both ways."""
    epes, necks, bridges = [], 0, 0
    for wafer, target, layout in _suite_cases():
        _assert_all_match(wafer, target, layout)
        epes += [s.epe for s in measure_epe(wafer, layout).samples]
        necks += len(detect_necks(wafer, target, 4))
        bridges += len(detect_bridges(wafer, target))
    epes = np.array(epes)
    assert necks and bridges
    assert (epes > 0).any() and (epes < 0).any() and (epes == 0).any()
    assert np.isposinf(epes).any() and np.isneginf(epes).any()


def test_empty_layout():
    layout = Layout(extent=512.0)
    wafer = np.zeros((GRID, GRID))
    assert measure_epe(wafer, layout).samples == []
    assert detect_necks(wafer, wafer, 3) == []
    assert detect_bridges(wafer, wafer) == []


@pytest.mark.parametrize("fill", [0.0, 1.0])
def test_empty_and_full_wafers(fill):
    """An empty wafer finds no contour inward (-inf), a full one none
    outward (+inf); a full wafer bridges every target component."""
    layout = make_clip(3, LithoConfig.small(GRID)).layout
    target = binarize(rasterize(layout, GRID))
    wafer = np.full((GRID, GRID), fill)
    _assert_all_match(wafer, target, layout)
    epes = {s.epe for s in measure_epe(wafer, layout).samples}
    assert epes == {np.inf if fill else -np.inf}


def test_points_on_the_border():
    """Rectangles touching the window's edges put probes off the grid
    (read OFF) and at small negative coordinates, which ``int()``
    truncates to pixel 0."""
    layout = Layout(extent=512.0, rects=[Rect(0.0, 0.0, 96.0, 512.0),
                                         Rect(200.0, 0.0, 312.0, 64.0),
                                         Rect(416.0, 448.0, 512.0, 512.0)])
    target = binarize(rasterize(layout, GRID))
    rng = np.random.default_rng(7)
    for wafer in [target, np.ones_like(target),
                  *_smoothed_wafers(target, rng, 4)]:
        _assert_all_match(wafer, target, layout)


def test_no_contour_in_range():
    """A printed blob far larger than the target has no OFF pixel
    within the search range, and a tiny print none ON inward."""
    layout = Layout(extent=512.0, rects=[Rect(160.0, 160.0, 352.0, 352.0)])
    swollen = np.zeros((GRID, GRID))
    swollen[2:62, 2:62] = 1.0
    speck = np.zeros((GRID, GRID))
    speck[31:33, 31:33] = 1.0
    target = binarize(rasterize(layout, GRID))
    for wafer, expected in ((swollen, np.inf), (speck, -np.inf)):
        _assert_all_match(wafer, target, layout)
        assert {s.epe for s in measure_epe(wafer, layout).samples} == \
            {expected}
