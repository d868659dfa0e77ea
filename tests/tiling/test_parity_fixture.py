"""Stitch-parity regression against the committed golden fixture.

``fixtures/parity.glp`` is a 3x3-cell synthetic chip whose 96 px
raster still fits one monolithic engine pass; ``parity_mask.pgm`` is
the monolithic-ILT reference mask for it (regenerate both with
``fixtures/make_fixtures.py`` after intentional engine changes).

Documented seam tolerance at the default 8 px halo (DESIGN.md §12),
measured through the *monolithic* simulation of both masks:

* the stitched mask's print error is within **1.35x** of the
  reference's;
* the two prints disagree on at most **12%** of chip pixels.

ILT solutions are not unique, so mask-level agreement is not part of
the contract — print-level agreement is.
"""

import os

import numpy as np
import pytest

from repro.bench.visualize import read_pgm
from repro.geometry import binarize, glp, rasterize
from repro.ilt.optimizer import ILTConfig, ILTOptimizer
from repro.litho.config import LithoConfig
from repro.litho.engine import LithoEngine
from repro.litho.kernels import build_kernels
from repro.tiling import TilingConfig, tiled_ilt

from .oracles import seam_report

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
CHIP_GRID = 96
ILT = ILTConfig(max_iterations=40, patience=None)
TILING = TilingConfig(tile=32, halo=8)

# The documented stitch-parity tolerance at the default halo.
PRINT_L2_FACTOR = 1.35
PRINT_MISMATCH_FRACTION = 0.12


@pytest.fixture(scope="module")
def fixture():
    layout = glp.load(os.path.join(FIXTURES, "parity.glp"))
    target = binarize(rasterize(layout, CHIP_GRID))
    reference = (read_pgm(os.path.join(FIXTURES, "parity_mask.pgm"))
                 >= 0.5).astype(float)
    litho = LithoConfig.small(CHIP_GRID)
    engine = LithoEngine.for_kernels(build_kernels(litho))
    return layout, target, reference, litho, engine


def test_committed_reference_reproduces(fixture):
    """The monolithic ILT run is deterministic: it must still produce
    the committed reference mask bit for bit."""
    _, target, reference, litho, engine = fixture
    result = ILTOptimizer(litho, ILT, engine=engine).optimize(target)
    assert np.array_equal(result.mask, reference)


def test_stitched_matches_monolithic_within_tolerance(fixture):
    _, target, reference, _, engine = fixture
    tiled = tiled_ilt(target, TILING, LithoConfig.small(TILING.tile), ILT,
                      workers=1)
    assert tiled.mask.shape == (CHIP_GRID, CHIP_GRID)
    ref_print = engine.wafer(reference)
    tiled_print = engine.wafer(tiled.mask)
    ref_l2 = float(np.sum((ref_print - target) ** 2))
    tiled_l2 = float(np.sum((tiled_print - target) ** 2))
    assert tiled_l2 <= PRINT_L2_FACTOR * ref_l2, \
        f"stitched print error {tiled_l2:.0f} vs reference {ref_l2:.0f}"
    report = seam_report(tiled_print, ref_print,
                         core=TILING.tile - 2 * TILING.halo, width=4)
    assert report.total_mismatch_fraction <= PRINT_MISMATCH_FRACTION, \
        str(report)
    # The disagreement concentrates at the seams: the band holds a
    # disproportionate share of the mismatches.
    assert report.band_mismatch > 0
    assert (report.band_mismatch / max(report.total_mismatch, 1)
            > report.band_pixels / (CHIP_GRID * CHIP_GRID))


def test_serial_and_pool_tiled_runs_bit_exact(fixture):
    _, target, _, _, _ = fixture
    litho = LithoConfig.small(TILING.tile)
    serial = tiled_ilt(target, TILING, litho, ILT, workers=1)
    pooled = tiled_ilt(target, TILING, litho, ILT, workers=2)
    assert np.array_equal(serial.mask, pooled.mask)
    assert np.array_equal(serial.mask_relaxed, pooled.mask_relaxed)
    assert np.array_equal(serial.tile_l2, pooled.tile_l2)
