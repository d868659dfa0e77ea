"""Tiled full-chip mask optimization.

GAN-OPC operates on engine-sized clips (64-128 px); real mask
optimization is layout-scale.  This package decomposes an arbitrarily
large layout raster into fixed-size tile windows with a configurable
halo overlap, runs the per-tile GAN+ILT flow (serially or fanned over
the shared-memory :class:`~repro.parallel.pool.WorkerPool`), and
stitches the optimized masks back together by exact core-region
cropping with optional seam feathering — see DESIGN.md §12.
"""

from .grid import Tile, TileGrid, extract_window
from .runner import TiledResult, TilingConfig, tiled_flow, tiled_ilt
from .stitch import stitch_cores, stitch_feathered

__all__ = [
    "Tile",
    "TileGrid",
    "extract_window",
    "stitch_cores",
    "stitch_feathered",
    "TilingConfig",
    "TiledResult",
    "tiled_ilt",
    "tiled_flow",
]
