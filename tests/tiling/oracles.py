"""Reference oracles for the tiling tests.

:func:`rasterize_window` paints one tile window straight from vector
geometry, so the window extraction can be checked against it bit for
bit.  :func:`seam_band` marks the pixels within a given distance of an
interior seam, and :func:`seam_report` compares a stitched chip image
with a monolithic reference inside and outside that band; the parity
fixture and the halo sweep read their seam error from it (DESIGN.md
§12).  The tiled runner itself rasterizes the whole chip and needs
neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.layout import Layout
from repro.geometry.raster import rasterize_region
from repro.tiling import Tile, TileGrid


def rasterize_window(layout: Layout, grid: TileGrid, tile: Tile,
                     antialias: bool = True) -> np.ndarray:
    """Rasterize one tile window directly from vector geometry.

    Bit-exact equal to ``extract_window(rasterize(layout,
    grid.chip_grid), tile)`` — the in-window part is painted with
    global pixel coordinates via
    :func:`~repro.geometry.raster.rasterize_region` — without ever
    materializing the monolithic chip raster.
    """
    window = np.zeros((tile.size, tile.size), dtype=float)
    row0 = max(tile.window_row0, 0)
    row1 = min(tile.window_row1, grid.chip_grid)
    col0 = max(tile.window_col0, 0)
    col1 = min(tile.window_col1, grid.chip_grid)
    if row0 < row1 and col0 < col1:
        window[row0 - tile.window_row0:row1 - tile.window_row0,
               col0 - tile.window_col0:col1 - tile.window_col0] = \
            rasterize_region(layout, grid.chip_grid, row0, row1, col0, col1,
                             antialias=antialias)
    return window


def seam_band(chip_grid: int, core: int, width: int) -> np.ndarray:
    """Boolean ``(chip_grid, chip_grid)`` mask of near-seam pixels.

    Interior seams are the lines where two tile cores meet — multiples
    of ``core`` strictly inside the chip.  A pixel is in the band when
    its row or column index lies within ``width`` pixels of a seam
    (``width = 0`` selects nothing).
    """
    if chip_grid < 1:
        raise ValueError(f"chip_grid must be >= 1, got {chip_grid}")
    if core < 1:
        raise ValueError(f"core must be >= 1, got {core}")
    if width < 0:
        raise ValueError(f"width must be >= 0, got {width}")
    near = np.zeros(chip_grid, dtype=bool)
    for seam in range(core, chip_grid, core):
        lo = max(seam - width, 0)
        hi = min(seam + width, chip_grid)
        near[lo:hi] = True
    band = np.zeros((chip_grid, chip_grid), dtype=bool)
    band[near, :] = True
    band[:, near] = True
    return band


@dataclass(frozen=True)
class SeamReport:
    """Stitched-vs-monolithic comparison split at the seam band.

    Attributes
    ----------
    width:
        Band half-width in pixels around each interior seam.
    band_pixels / interior_pixels:
        Pixel counts of the band and its complement.
    band_mismatch / interior_mismatch:
        Binarized disagreement counts in each region.
    total_mismatch:
        ``band_mismatch + interior_mismatch``.
    max_abs_difference:
        Largest absolute pixel difference anywhere (gray images).
    """

    width: int
    band_pixels: int
    interior_pixels: int
    band_mismatch: int
    interior_mismatch: int
    max_abs_difference: float

    @property
    def total_mismatch(self) -> int:
        return self.band_mismatch + self.interior_mismatch

    @property
    def band_mismatch_fraction(self) -> float:
        return (self.band_mismatch / self.band_pixels
                if self.band_pixels else 0.0)

    @property
    def total_mismatch_fraction(self) -> float:
        total = self.band_pixels + self.interior_pixels
        return self.total_mismatch / total if total else 0.0

    def __str__(self) -> str:
        return (f"seam band ±{self.width}px: {self.band_mismatch}/"
                f"{self.band_pixels} mismatched "
                f"({100.0 * self.band_mismatch_fraction:.2f}%), "
                f"interior: {self.interior_mismatch}/{self.interior_pixels}")


def seam_report(stitched: np.ndarray, reference: np.ndarray,
                core: int, width: int = 4) -> SeamReport:
    """Compare a stitched chip image against a monolithic reference.

    Both images are binarized at 0.5 for the mismatch counts (masks and
    wafer images are {0, 1} already; relaxed images threshold at their
    midpoint), while ``max_abs_difference`` reports the raw gray-level
    gap.
    """
    stitched = np.asarray(stitched, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if stitched.shape != reference.shape or stitched.ndim != 2:
        raise ValueError(
            f"images must be equal-shape 2-D, got {stitched.shape} vs "
            f"{reference.shape}")
    if stitched.shape[0] != stitched.shape[1]:
        raise ValueError(f"chip image must be square, got {stitched.shape}")
    chip_grid = stitched.shape[0]
    band = seam_band(chip_grid, core, width)
    mismatch = (stitched >= 0.5) != (reference >= 0.5)
    band_pixels = int(band.sum())
    return SeamReport(
        width=width,
        band_pixels=band_pixels,
        interior_pixels=int(chip_grid * chip_grid - band_pixels),
        band_mismatch=int(np.count_nonzero(mismatch & band)),
        interior_mismatch=int(np.count_nonzero(mismatch & ~band)),
        max_abs_difference=float(np.max(np.abs(stitched - reference))))
