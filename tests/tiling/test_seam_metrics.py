"""Seam band construction and stitched-vs-monolithic reporting."""

import numpy as np
import pytest

from .oracles import SeamReport, seam_band, seam_report


def test_seam_band_marks_interior_seams_only():
    band = seam_band(chip_grid=12, core=4, width=1)
    # Seams at rows/cols 4 and 8; band covers indices {3,4} and {7,8}.
    near = {3, 4, 7, 8}
    for idx in range(12):
        assert band[idx, 0] == (idx in near)
        assert band[0, idx] == (idx in near)
    # Width 0 selects nothing.
    assert not seam_band(12, 4, 0).any()
    # A single-tile chip has no interior seams.
    assert not seam_band(12, 16, 3).any()


def test_seam_band_validation():
    with pytest.raises(ValueError):
        seam_band(0, 4, 1)
    with pytest.raises(ValueError):
        seam_band(12, 0, 1)
    with pytest.raises(ValueError):
        seam_band(12, 4, -1)


def test_seam_report_splits_band_and_interior():
    chip = 12
    reference = np.zeros((chip, chip))
    stitched = np.zeros((chip, chip))
    stitched[4, 0] = 1.0    # on-seam mismatch (row 4 is a seam)
    stitched[0, 0] = 1.0    # interior mismatch
    stitched[6, 6] = 0.3    # sub-threshold gray difference: not a mismatch
    report = seam_report(stitched, reference, core=4, width=1)
    assert isinstance(report, SeamReport)
    assert report.band_mismatch == 1
    assert report.interior_mismatch == 1
    assert report.total_mismatch == 2
    assert report.max_abs_difference == 1.0
    assert 0.0 < report.band_mismatch_fraction < 1.0
    assert report.total_mismatch_fraction == 2 / (chip * chip)
    assert report.band_pixels + report.interior_pixels == chip * chip
    assert "seam band" in str(report)


def test_seam_report_identical_images():
    image = np.random.default_rng(0).random((16, 16))
    report = seam_report(image, image, core=8, width=2)
    assert report.total_mismatch == 0
    assert report.max_abs_difference == 0.0


def test_seam_report_validation():
    with pytest.raises(ValueError):
        seam_report(np.zeros((4, 4)), np.zeros((5, 5)), core=2)
    with pytest.raises(ValueError):
        seam_report(np.zeros((4, 5)), np.zeros((4, 5)), core=2)
