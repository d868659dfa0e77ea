"""Halo-overlap tile decomposition of a chip raster.

The chip is a ``chip_grid x chip_grid`` pixel raster.  Every tile sees
a fixed ``tile x tile`` pixel *window* — the size the litho engine and
the generator are built for, so one kernel cache serves every tile —
of which only the central *core* (``tile - 2*halo`` pixels per axis)
is trusted: the halo ring absorbs the optical interaction of
neighboring geometry (~wavelength/NA, about 18 px at the paper's 8 nm
pixels) plus the periodic wrap-around of the tile-local simulation.

Cores partition the chip exactly — ``ceil(chip_grid / core)`` tiles
per axis, the last row/column clamped to the chip edge — with no gap
and no double cover (property-tested in ``tests/tiling``).  Windows
may extend past the chip; pixels outside are empty field (zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np



@dataclass(frozen=True)
class Tile:
    """One tile of a :class:`TileGrid`.

    Core bounds are in chip-pixel coordinates and lie inside the chip;
    the window is the core padded by ``halo`` on every side, grown to
    the fixed ``size`` when the core is clamped, and may extend past
    the chip raster (those pixels are zero field).
    """

    index: int
    row: int
    col: int
    core_row0: int
    core_row1: int
    core_col0: int
    core_col1: int
    halo: int
    size: int

    @property
    def window_row0(self) -> int:
        return self.core_row0 - self.halo

    @property
    def window_col0(self) -> int:
        return self.core_col0 - self.halo

    @property
    def window_row1(self) -> int:
        return self.window_row0 + self.size

    @property
    def window_col1(self) -> int:
        return self.window_col0 + self.size

    @property
    def core_height(self) -> int:
        return self.core_row1 - self.core_row0

    @property
    def core_width(self) -> int:
        return self.core_col1 - self.core_col0

    def core_slices(self) -> tuple:
        """``(chip_rows, chip_cols)`` slices of this tile's core."""
        return (slice(self.core_row0, self.core_row1),
                slice(self.core_col0, self.core_col1))

    def local_core_slices(self) -> tuple:
        """Core slices in the tile window's local frame."""
        return (slice(self.halo, self.halo + self.core_height),
                slice(self.halo, self.halo + self.core_width))


@dataclass(frozen=True)
class TileGrid:
    """Decomposition of a ``chip_grid`` px raster into halo'd tiles."""

    chip_grid: int
    tile: int
    halo: int

    def __post_init__(self):
        if self.chip_grid < 1:
            raise ValueError(f"chip_grid must be >= 1, got {self.chip_grid}")
        if self.tile < 8:
            raise ValueError(f"tile must be >= 8, got {self.tile}")
        if self.halo < 0:
            raise ValueError(f"halo must be >= 0, got {self.halo}")
        if self.core < 1:
            raise ValueError(
                f"tile {self.tile} leaves no core after halo {self.halo} "
                f"(need tile > 2*halo)")

    @property
    def core(self) -> int:
        """Trusted pixels per axis per tile (``tile - 2*halo``)."""
        return self.tile - 2 * self.halo

    @property
    def rows(self) -> int:
        return -(-self.chip_grid // self.core)

    @property
    def cols(self) -> int:
        return -(-self.chip_grid // self.core)

    @property
    def count(self) -> int:
        return self.rows * self.cols

    def tile_at(self, row: int, col: int) -> Tile:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(
                f"tile ({row}, {col}) outside {self.rows}x{self.cols} grid")
        core_row0 = row * self.core
        core_col0 = col * self.core
        return Tile(index=row * self.cols + col, row=row, col=col,
                    core_row0=core_row0,
                    core_row1=min(core_row0 + self.core, self.chip_grid),
                    core_col0=core_col0,
                    core_col1=min(core_col0 + self.core, self.chip_grid),
                    halo=self.halo, size=self.tile)

    def tiles(self) -> List[Tile]:
        return [self.tile_at(r, c)
                for r in range(self.rows) for c in range(self.cols)]

    def __iter__(self) -> Iterator[Tile]:
        return iter(self.tiles())


def extract_window(chip_image: np.ndarray, tile: Tile) -> np.ndarray:
    """Zero-padded ``(size, size)`` window of ``chip_image`` for a tile.

    Window pixels outside the chip raster (halo at the chip boundary,
    clamped last row/column) are empty field.
    """
    chip_rows, chip_cols = chip_image.shape
    window = np.zeros((tile.size, tile.size), dtype=chip_image.dtype)
    row0 = max(tile.window_row0, 0)
    row1 = min(tile.window_row1, chip_rows)
    col0 = max(tile.window_col0, 0)
    col1 = min(tile.window_col1, chip_cols)
    if row0 < row1 and col0 < col1:
        window[row0 - tile.window_row0:row1 - tile.window_row0,
               col0 - tile.window_col0:col1 - tile.window_col0] = \
            chip_image[row0:row1, col0:col1]
    return window
