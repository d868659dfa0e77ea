"""Unit tests for neck/bridge defect detectors (Figure 2 semantics)."""

from collections import deque

import numpy as np
import pytest

from repro.metrics import detect_bridges, detect_necks
from repro.metrics.defects import _label_components, _run_lengths


def _loop_run_lengths(image, axis):
    """Row-by-row reference for ``_run_lengths``."""
    image = image.astype(bool)
    if axis == 0:
        image = image.T
    out = np.zeros(image.shape, dtype=int)
    for r, row in enumerate(image):
        padded = np.concatenate(([0], row.view(np.int8), [0]))
        changes = np.diff(padded)
        starts = np.nonzero(changes == 1)[0]
        ends = np.nonzero(changes == -1)[0]
        for start, end in zip(starts, ends):
            out[r, start:end] = end - start
    return out.T if axis == 0 else out


def _flood_fill_labels(image):
    """Breadth-first 4-connected labeling, components numbered in
    raster order of their first pixel."""
    rows, cols = image.shape
    labels = np.zeros((rows, cols), dtype=int)
    count = 0
    for r in range(rows):
        for c in range(cols):
            if not image[r, c] or labels[r, c]:
                continue
            count += 1
            labels[r, c] = count
            queue = deque([(r, c)])
            while queue:
                y, x = queue.popleft()
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if (0 <= ny < rows and 0 <= nx < cols and image[ny, nx]
                            and not labels[ny, nx]):
                        labels[ny, nx] = count
                        queue.append((ny, nx))
    return labels, count


def _serpentine(size):
    """One path filling every other row, joined at alternating ends."""
    image = np.zeros((size, size), dtype=bool)
    image[::2] = True
    for r in range(1, size, 2):
        image[r, -1 if r % 4 == 1 else 0] = True
    return image


_LABEL_CASES = {
    "empty": np.zeros((9, 7), dtype=bool),
    "full": np.ones((9, 7), dtype=bool),
    "row": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool),
    "column": np.array([[1], [0], [1], [1], [0], [1]], dtype=bool),
    "checkerboard": np.indices((8, 9)).sum(axis=0) % 2 == 0,
    "serpentine": _serpentine(128),
    "u_shapes": np.array([[1, 0, 1, 0, 0, 1],
                          [1, 0, 1, 0, 1, 1],
                          [1, 1, 1, 0, 1, 0],
                          [0, 0, 0, 0, 1, 1]], dtype=bool),
}


class TestLabelComponents:
    @pytest.mark.parametrize("name", sorted(_LABEL_CASES))
    def test_matches_flood_fill(self, name):
        image = _LABEL_CASES[name]
        labels, count = _label_components(image)
        expected, expected_count = _flood_fill_labels(image)
        assert count == expected_count
        np.testing.assert_array_equal(labels, expected)

    def test_shape_cases_count(self):
        assert _label_components(_LABEL_CASES["empty"])[1] == 0
        assert _label_components(_LABEL_CASES["full"])[1] == 1
        assert _label_components(_LABEL_CASES["checkerboard"])[1] == 36
        assert _label_components(_LABEL_CASES["serpentine"])[1] == 1

    def test_random_masks_match_flood_fill(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            rows, cols = rng.integers(1, 24, size=2)
            image = rng.random((rows, cols)) < rng.random()
            labels, count = _label_components(image)
            expected, expected_count = _flood_fill_labels(image)
            assert count == expected_count
            np.testing.assert_array_equal(labels, expected)

    def test_numbering_follows_first_pixel_in_raster_order(self):
        image = _LABEL_CASES["u_shapes"]
        labels, count = _label_components(image)
        firsts = [np.flatnonzero(labels.ravel() == label)[0]
                  for label in range(1, count + 1)]
        assert firsts == sorted(firsts)
        # The right U's first pixel, (0, 5), comes after the left U's.
        assert labels[0, 5] == 2 and labels[0, 0] == labels[0, 2] == 1


class TestRunLengths:
    def test_horizontal_runs(self):
        image = np.array([[1, 1, 0, 1]], dtype=bool)
        runs = _run_lengths(image, axis=1)
        np.testing.assert_array_equal(runs, [[2, 2, 0, 1]])

    def test_vertical_runs(self):
        image = np.array([[1], [1], [0], [1]], dtype=bool)
        runs = _run_lengths(image, axis=0)
        np.testing.assert_array_equal(runs.ravel(), [2, 2, 0, 1])

    def test_all_off(self):
        runs = _run_lengths(np.zeros((3, 3), dtype=bool), axis=1)
        assert runs.sum() == 0

    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_row_loop(self, axis):
        rng = np.random.default_rng(7)
        images = [rng.random(rng.integers(1, 30, size=2)) < rng.random()
                  for _ in range(100)]
        images += [_LABEL_CASES[name] for name in sorted(_LABEL_CASES)]
        for image in images:
            runs = _run_lengths(image, axis=axis)
            expected = _loop_run_lengths(image, axis)
            assert runs.dtype == expected.dtype
            np.testing.assert_array_equal(runs, expected)


class TestNeckDetection:
    def _wire_with_neck(self):
        target = np.zeros((16, 16))
        target[6:10, 1:15] = 1.0  # 4px wide wire
        wafer = target.copy()
        wafer[6, 7:9] = 0.0  # pinch to 3px... go further
        wafer[7, 7:9] = 0.0  # now 2px at columns 7-8
        return wafer, target

    def test_detects_pinch(self):
        wafer, target = self._wire_with_neck()
        defects = detect_necks(wafer, target, min_width_px=3)
        assert len(defects) == 1
        defect = defects[0]
        assert defect.width_px == 2
        assert 7 <= defect.col <= 8

    def test_healthy_wire_clean(self):
        target = np.zeros((16, 16))
        target[6:10, 1:15] = 1.0
        assert detect_necks(target, target, min_width_px=3) == []

    def test_threshold_sensitivity(self):
        wafer, target = self._wire_with_neck()
        assert detect_necks(wafer, target, min_width_px=2) == []
        assert len(detect_necks(wafer, target, min_width_px=4)) >= 1

    def test_off_target_material_not_a_neck(self):
        """Printed slivers outside any target wire are not necks (they
        are handled by L2/bridge analysis)."""
        target = np.zeros((16, 16))
        target[2:6, 2:14] = 1.0
        wafer = target.copy()
        wafer[12, 2:5] = 1.0  # stray 1px-high sliver, off target
        assert detect_necks(wafer, target, min_width_px=3) == []

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            detect_necks(np.zeros((4, 4)), np.zeros((5, 5)), 2)
        with pytest.raises(ValueError):
            detect_necks(np.zeros((4, 4)), np.zeros((4, 4)), 0)

    def test_multiple_necks_reported_separately(self):
        target = np.zeros((16, 32))
        target[6:10, 1:31] = 1.0
        wafer = target.copy()
        wafer[6:8, 6:8] = 0.0    # neck 1
        wafer[8:10, 22:24] = 0.0  # neck 2 (disconnected violation region)
        defects = detect_necks(wafer, target, min_width_px=3)
        assert len(defects) == 2


class TestBridgeDetection:
    def _two_wires(self):
        target = np.zeros((16, 16))
        target[3:6, 1:15] = 1.0
        target[10:13, 1:15] = 1.0
        return target

    def test_clean_print_no_bridge(self):
        target = self._two_wires()
        assert detect_bridges(target, target) == []

    def test_short_detected(self):
        target = self._two_wires()
        wafer = target.copy()
        wafer[6:10, 7:9] = 1.0  # material connecting the wires
        defects = detect_bridges(wafer, target)
        assert len(defects) == 1
        assert len(defects[0].component_labels) == 2

    def test_stray_blob_touching_nothing_ignored(self):
        target = self._two_wires()
        wafer = target.copy()
        wafer[7:9, 1:3] = 1.0  # blob between wires but touching neither
        # The blob is a separate wafer component overlapping zero target
        # components -> not a bridge.
        wafer[6, :] = 0.0
        wafer[9, :] = 0.0
        assert detect_bridges(wafer, target) == []

    def test_three_way_short(self):
        target = np.zeros((24, 16))
        target[2:5, 1:15] = 1.0
        target[10:13, 1:15] = 1.0
        target[18:21, 1:15] = 1.0
        wafer = target.copy()
        wafer[:, 7:9] = 1.0  # vertical short across all three
        defects = detect_bridges(wafer, target)
        assert len(defects) == 1
        assert len(defects[0].component_labels) == 3

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            detect_bridges(np.zeros((4, 4)), np.zeros((5, 5)))
