"""Property-based tests of the tile decomposition (hypothesis).

The two contracts everything downstream leans on:

* tile cores partition the chip raster exactly — every pixel owned by
  exactly one core, no gap, no double cover;
* reassembling raw target windows through the core-crop stitch is
  bit-exact versus the monolithic raster, whether the windows were
  cropped from the chip image or rasterized directly from vector
  geometry with global pixel coordinates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.layout import Layout
from repro.geometry.raster import rasterize, rasterize_region
from repro.geometry.shapes import Rect
from repro.tiling import TileGrid, extract_window, stitch_cores

from .oracles import rasterize_window


@st.composite
def tile_grids(draw):
    tile = draw(st.integers(min_value=8, max_value=48))
    halo = draw(st.integers(min_value=0, max_value=(tile - 1) // 2))
    chip_grid = draw(st.integers(min_value=1, max_value=160))
    return TileGrid(chip_grid=chip_grid, tile=tile, halo=halo)


def random_layout(seed: int, extent: float, rects: int) -> Layout:
    rng = np.random.default_rng(seed)
    layout = Layout(extent=extent)
    for _ in range(rects):
        x0, y0 = rng.uniform(0.0, extent * 0.9, size=2)
        w, h = rng.uniform(extent * 0.02, extent * 0.3, size=2)
        layout.add(Rect(x0, y0, min(x0 + w, extent), min(y0 + h, extent)))
    return layout


@settings(max_examples=60, deadline=None)
@given(grid=tile_grids())
def test_cores_partition_exactly(grid):
    cover = np.zeros((grid.chip_grid, grid.chip_grid), dtype=int)
    for tile in grid:
        assert tile.core_height >= 1 and tile.core_width >= 1
        assert 0 <= tile.core_row0 < tile.core_row1 <= grid.chip_grid
        assert 0 <= tile.core_col0 < tile.core_col1 <= grid.chip_grid
        cover[tile.core_slices()] += 1
    assert np.array_equal(cover, np.ones_like(cover)), \
        "cores must cover every chip pixel exactly once"


@settings(max_examples=60, deadline=None)
@given(grid=tile_grids())
def test_windows_have_uniform_engine_size(grid):
    for tile in grid:
        assert tile.window_row1 - tile.window_row0 == grid.tile
        assert tile.window_col1 - tile.window_col0 == grid.tile
        # The core sits inside the window at the halo offset.
        assert tile.window_row0 + tile.halo == tile.core_row0
        assert tile.window_col0 + tile.halo == tile.core_col0


@settings(max_examples=25, deadline=None)
@given(grid=tile_grids(), seed=st.integers(min_value=0, max_value=2**16))
def test_raw_window_reassembly_bit_exact(grid, seed):
    layout = random_layout(seed, extent=8.0 * grid.chip_grid, rects=6)
    chip = rasterize(layout, grid.chip_grid)
    windows = [extract_window(chip, tile) for tile in grid]
    assert np.array_equal(stitch_cores(windows, grid), chip)


@settings(max_examples=25, deadline=None)
@given(grid=tile_grids(), seed=st.integers(min_value=0, max_value=2**16))
def test_vector_window_matches_raster_crop(grid, seed):
    layout = random_layout(seed, extent=8.0 * grid.chip_grid, rects=6)
    chip = rasterize(layout, grid.chip_grid)
    for tile in grid:
        vector = rasterize_window(layout, grid, tile)
        assert np.array_equal(vector, extract_window(chip, tile))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       grid_px=st.integers(min_value=4, max_value=96),
       data=st.data())
def test_rasterize_region_is_bit_exact_crop(seed, grid_px, data):
    layout = random_layout(seed, extent=8.0 * grid_px, rects=5)
    row0 = data.draw(st.integers(0, grid_px - 1))
    row1 = data.draw(st.integers(row0 + 1, grid_px))
    col0 = data.draw(st.integers(0, grid_px - 1))
    col1 = data.draw(st.integers(col0 + 1, grid_px))
    full = rasterize(layout, grid_px)
    region = rasterize_region(layout, grid_px, row0, row1, col0, col1)
    assert np.array_equal(region, full[row0:row1, col0:col1])
    centers = rasterize_region(layout, grid_px, row0, row1, col0, col1,
                               antialias=False)
    assert np.array_equal(
        centers, rasterize(layout, grid_px, antialias=False)[row0:row1,
                                                             col0:col1])


def test_tile_grid_validation():
    with pytest.raises(ValueError):
        TileGrid(chip_grid=0, tile=32, halo=4)
    with pytest.raises(ValueError):
        TileGrid(chip_grid=64, tile=4, halo=0)
    with pytest.raises(ValueError):
        TileGrid(chip_grid=64, tile=32, halo=-1)
    with pytest.raises(ValueError):
        TileGrid(chip_grid=64, tile=32, halo=16)  # no core left
    grid = TileGrid(chip_grid=64, tile=32, halo=4)
    with pytest.raises(ValueError):
        grid.tile_at(grid.rows, 0)


def test_rasterize_region_validation():
    layout = random_layout(0, extent=64.0, rects=2)
    with pytest.raises(ValueError):
        rasterize_region(layout, 8, 0, 0, 0, 4)
    with pytest.raises(ValueError):
        rasterize_region(layout, 8, 0, 9, 0, 4)
    with pytest.raises(ValueError):
        rasterize_region(layout, 8, -1, 4, 0, 4)


def test_clamped_last_tiles_keep_window_size():
    grid = TileGrid(chip_grid=70, tile=32, halo=4)  # core 24 -> 3 rows
    last = grid.tile_at(grid.rows - 1, grid.cols - 1)
    assert last.core_row1 == 70 and last.core_height == 70 - 2 * 24
    assert last.window_row1 - last.window_row0 == 32
    chip = np.arange(70.0 * 70.0).reshape(70, 70)
    window = extract_window(chip, last)
    inside = window[last.local_core_slices()]
    assert np.array_equal(inside, chip[last.core_slices()])
    # Padding beyond the chip is empty field.
    assert np.all(window[last.halo + last.core_height:, :] == 0.0)
