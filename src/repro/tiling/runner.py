"""Tiled ILT / GAN-OPC flow over a chip-scale target raster.

Each tile optimizes its fixed-size window (core + halo) with the
ordinary clip-scale machinery — the same :class:`ILTOptimizer` /
:class:`GanOpcFlow` code, the same engine, one kernel cache for every
tile — and only the core survives stitching.  The per-tile litho
simulation is periodic on the *tile window* rather than the chip, so
stitched results match a monolithic run only to within a documented
seam tolerance that shrinks as the halo grows (tests/tiling).

Each tile is one :func:`_tile_task`, run through a
:class:`~repro.parallel.pool.TaskRunner`: inline with one worker, or
one tile per task over the shared-memory
:class:`~repro.parallel.pool.WorkerPool`, where the chip target ships
once through shared memory and only scalars cross the pickle
boundary.  Either way tile cores are written into disjoint slices of a
chip-sized output (no two tiles own the same core pixel, so the writes
are race-free), and both cases run the identical task on identical
float64 inputs, so they are **bit-exact** equal.

Empty windows (no geometry in core or halo) are skipped by default:
the optimum for an empty target is the empty mask, which the skip
reproduces exactly for the binary mask (the relaxed mask of a real
run would sit at ``sigmoid(-mask_steepness)`` instead of 0).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..obs import trace

from ..core.flow import GanOpcFlow
from ..core.generator import MaskGenerator
from ..ilt.optimizer import ILTConfig, ILTOptimizer
from ..litho.config import LithoConfig
from ..parallel.flow import _rebuild_generator, generator_payload
from ..parallel.pool import (PoolStats, TaskRunner, WorkerPool,
                             attach_array, worker_engine, worker_state)
from .grid import TileGrid, extract_window
from .stitch import stitch_feathered


@dataclass(frozen=True)
class TilingConfig:
    """Tile decomposition and stitching parameters.

    Attributes
    ----------
    tile:
        Fixed window size in pixels — the grid the litho engine and
        the generator run at.
    halo:
        Overlap ring in pixels on every side of a tile's core.  The
        default 8 px covers roughly half the optical interaction range
        at the paper's 8 nm pixels; the halo-sufficiency sweep in
        tests/tiling shows seam error decaying as it grows.
    blend:
        Feather width (px) for stitching the *relaxed* mask; 0 = hard
        core crop.  Must not exceed ``halo``.  The binary mask is
        always stitched by exact core partition.
    skip_empty:
        Skip optimization of windows with no geometry (empty-field
        tiles of a sparse chip); their mask is exactly empty.
    """

    tile: int = 64
    halo: int = 8
    blend: int = 0
    skip_empty: bool = True

    def __post_init__(self):
        if self.blend < 0 or self.blend > self.halo:
            raise ValueError(
                f"blend must be in [0, halo={self.halo}], got {self.blend}")

    def grid_for(self, chip_grid: int) -> TileGrid:
        return TileGrid(chip_grid=chip_grid, tile=self.tile, halo=self.halo)


@dataclass
class TiledResult:
    """Outcome of a tiled chip-scale optimization.

    ``l2`` is the sum over tiles of the discrete litho error restricted
    to each tile's core, under the tile-local (window-periodic)
    simulation — the chip-scale analogue of the per-clip L2 column.
    """

    mask: np.ndarray
    mask_relaxed: np.ndarray
    tile_grid: TileGrid
    l2: float
    tile_l2: np.ndarray
    tiles_total: int
    tiles_skipped: int
    iterations: int
    runtime_seconds: float
    workers: int
    pool_stats: Optional[PoolStats] = None


# ----------------------------------------------------------------------
# The tile task (module-level: must be picklable)
# ----------------------------------------------------------------------
def _tile_task(index: int, chip_spec, out_spec, windows_spec,
               tile_grid: TileGrid, litho_config: LithoConfig,
               ilt_config: ILTConfig, max_iterations: Optional[int],
               skip_empty: bool, flow: bool):
    """Optimize one tile window and write it into the chip outputs.

    ``flow`` selects the GAN-OPC flow — the generator rebuilt from the
    run's broadcast state, then ``max_iterations`` of refinement —
    over ILT from scratch.  Cores are disjoint chip slices, so tasks
    committing different tiles never touch the same output pixel.
    Returns ``(index, core l2, iterations, skipped)``.
    """
    tile = tile_grid.tiles()[index]
    window = extract_window(attach_array(chip_spec), tile)
    if skip_empty and not window.any():
        return (index, 0.0, 0, True)
    engine = worker_engine(litho_config)
    if flow:
        generator = _rebuild_generator(worker_state())
        result = GanOpcFlow(generator, litho_config, ilt_config,
                            engine=engine).optimize(
            window, refine_iterations=max_iterations).ilt_result
    else:
        result = ILTOptimizer(litho_config, ilt_config,
                              engine=engine).optimize(
            window, max_iterations=max_iterations)
    core, local = tile.core_slices(), tile.local_core_slices()
    out = attach_array(out_spec)
    out[0][core] = result.mask[local]
    out[1][core] = result.mask_relaxed[local]
    if windows_spec is not None:
        attach_array(windows_spec)[index] = result.mask_relaxed
    diff = (engine.wafer(result.mask) - window)[local]
    return (index, float(np.sum(diff * diff)), result.iterations, False)


# ----------------------------------------------------------------------
# Parent-side drivers
# ----------------------------------------------------------------------
def _run_tiled(target: np.ndarray, config: TilingConfig,
               litho_config: LithoConfig, workers: int,
               precision: Optional[str], pool: Optional[WorkerPool],
               state, task_args, progress=None) -> TiledResult:
    """Run one :func:`_tile_task` per tile and stitch the result.

    ``task_args`` are the task's arguments after the tile grid.
    ``progress`` (``(done, total, pid, seconds)``) fires per finished
    tile — ``ilt --tiled`` and ``flow --tiled`` render it as their
    progress line.
    """
    target = np.asarray(target, dtype=float)
    if target.ndim != 2 or target.shape[0] != target.shape[1]:
        raise ValueError(
            f"target must be a square chip raster, got {target.shape}")
    if litho_config.grid != config.tile:
        raise ValueError(
            f"litho grid {litho_config.grid} != tile size {config.tile}")
    tile_grid = config.grid_for(target.shape[0])
    tiles = tile_grid.tiles()
    chip_grid = tile_grid.chip_grid
    started = time.perf_counter()

    with trace.span("tiling.run", tiles=len(tiles), workers=workers), \
            TaskRunner(workers, pool, litho_config, precision,
                       state) as runner:
        chip = runner.share(target)
        out = runner.share(np.zeros((2, chip_grid, chip_grid)))
        windows = (runner.share(np.zeros((len(tiles), config.tile,
                                          config.tile)))
                   if config.blend > 0 else None)
        reports = runner.map(
            _tile_task,
            [(tile.index, chip, out, windows, tile_grid) + task_args
             for tile in tiles],
            label="tiling.map", progress=progress)
        mask, relaxed = runner.collect(out)
        if windows is not None:
            relaxed = stitch_feathered(list(runner.collect(windows)),
                                       tile_grid, config.blend)

    tile_l2 = np.zeros(len(tiles))
    iterations = 0
    skipped_count = 0
    for index, l2, iters, skipped in reports:
        tile_l2[index] = l2
        iterations = max(iterations, iters)
        skipped_count += int(skipped)
    return TiledResult(
        mask=mask, mask_relaxed=relaxed, tile_grid=tile_grid,
        l2=float(tile_l2.sum()), tile_l2=tile_l2,
        tiles_total=len(tiles), tiles_skipped=skipped_count,
        iterations=iterations,
        runtime_seconds=time.perf_counter() - started,
        workers=runner.workers, pool_stats=runner.pool_stats)


def tiled_ilt(target: np.ndarray,
              config: Optional[TilingConfig] = None,
              litho_config: Optional[LithoConfig] = None,
              ilt_config: Optional[ILTConfig] = None,
              workers: int = 1,
              precision: Optional[str] = None,
              max_iterations: Optional[int] = None,
              pool: Optional[WorkerPool] = None,
              progress=None) -> TiledResult:
    """ILT over a chip-scale binary target raster, tile by tile.

    Parameters
    ----------
    target:
        Square binary chip raster, any size (not limited to the engine
        grid).
    config:
        Tile/halo/stitch settings; the litho config's grid must equal
        ``config.tile`` (default: ``LithoConfig.small(config.tile)``).
    workers:
        ``1`` runs the tile task inline, tile by tile; ``> 1`` (or a
        ``pool``) fans tiles over a :class:`WorkerPool`.  Results are
        bit-exact either way.
    """
    config = config or TilingConfig()
    litho_config = litho_config or LithoConfig.small(config.tile)
    ilt_config = ilt_config or ILTConfig()
    return _run_tiled(
        target, config, litho_config, workers, precision, pool, None,
        (litho_config, ilt_config, max_iterations, config.skip_empty,
         False),
        progress=progress)


def tiled_flow(generator: MaskGenerator, target: np.ndarray,
               config: Optional[TilingConfig] = None,
               litho_config: Optional[LithoConfig] = None,
               refine_config: Optional[ILTConfig] = None,
               workers: int = 1,
               precision: Optional[str] = None,
               refine_iterations: Optional[int] = None,
               pool: Optional[WorkerPool] = None,
               progress=None) -> TiledResult:
    """GAN-OPC flow (generate + refine) over a chip raster, tile by tile.

    The run's broadcast state is :func:`~repro.parallel.generator_payload`
    of ``generator``: sent once per worker through the pool's ``state``
    channel, or handed to the inline tasks.  A given ``pool`` broadcasts
    its own state, which must be such a payload.
    """
    config = config or TilingConfig()
    litho_config = litho_config or LithoConfig.small(config.tile)
    refine_config = refine_config or ILTConfig(max_iterations=50, patience=4)
    return _run_tiled(
        target, config, litho_config, workers, precision, pool,
        generator_payload(generator),
        (litho_config, refine_config, refine_iterations, config.skip_empty,
         True),
        progress=progress)
