"""The three benchmark workloads: ``table2``, ``train`` and ``chip``.

Each workload has a ``setup`` (everything a user pays once before the
first result: kernels, dataset reference masks, seeded generator
training, pool start-up), a ``run_pass`` that does one full unit of the
workload and reports its timings, quality and an exact fingerprint of
its outputs, and ``checks`` that verify the outputs outside the timed
region.  All computation is float64 and deterministic, so a pass
repeats bit for bit.

Every workload reports the same end-to-end fields, with this meaning:

========  =========================  =========================  ===============================
workload  item_a                     item_b                     l2_rel
========  =========================  =========================  ===============================
table2    ILT per-clip runtime       PGAN-OPC per-clip runtime  L2 over all clips and methods
train     Algorithm 2 pretrain step  Algorithm 1 GAN iteration  GAN iterations' L2 to reference
chip      one tile on a worker       busiest worker per pass    stitched chip L2
========  =========================  =========================  ===============================

``l2_rel`` is the discrete L2 in pixels divided by the pattern pixels it
is measured against (targets, or reference masks for ``train``), which
keeps it comparable across seeds whose layouts differ in density.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.harness import (ExperimentConfig, Pipeline, run_table2,
                                 train_generators)
from repro.bench.iccad13 import make_clip
from repro.core.discriminator import PairDiscriminator
from repro.core.gan_opc import GanOpcTrainer
from repro.core.generator import MaskGenerator
from repro.core.pretrain import ILTGuidedPretrainer
from repro.geometry.raster import rasterize
from repro.ilt.optimizer import ILTConfig
from repro.layoutgen import ChipConfig, synthesize_chip
from repro.litho.conditions import ConditionSet
from repro.litho.kernels import clear_cache
from repro.parallel import WorkerPool, generator_payload, worker_engine
from repro.runtime import RunLogger
from repro.tiling import TilingConfig, tiled_flow

#: Worker processes of the chip pool; with one BLAS thread per process
#: this keeps processes x threads at the machine's two cores.
CHIP_WORKERS = 2

#: Seed of the training set and initialisation behind the Table 2
#: generators.  It is fixed, like the clips, because each generator's
#: quality sets how long every GAN flow refines: with seeded generators
#: (or seeded clip choices) the per-clip runtimes and L2 spread 15-50%
#: from seed to seed, which would drown any change the benchmark is
#: meant to catch.
TABLE2_GENERATOR_SEED = 0


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``FULL`` is what the benchmark measures."""

    grid: int
    clips: Tuple[int, ...]
    dataset_size: int
    setup_pretrain: int
    setup_gan: int
    ilt_iterations: int
    refine_iterations: int
    train_pretrain: int
    train_gan: int
    tile: int
    halo: int
    blend: int
    chip_refine: int
    pixel_nm: float = 8.0


#: ``clips`` are suite ids; 1, 4 and 9 span the suite's pattern areas.
FULL = Scale(grid=128, clips=(1, 4, 9), dataset_size=4, setup_pretrain=2,
             setup_gan=2, ilt_iterations=150, refine_iterations=100,
             train_pretrain=4, train_gan=4, tile=128, halo=16, blend=8,
             chip_refine=30)
#: 32 px smoke scale for the benchmark's self-tests.
TINY = Scale(grid=32, clips=(1, 4), dataset_size=4, setup_pretrain=1,
             setup_gan=1, ilt_iterations=10, refine_iterations=5,
             train_pretrain=1, train_gan=1, tile=32, halo=4, blend=2,
             chip_refine=3)
SCALES = {"full": FULL, "tiny": TINY}


@dataclass
class PassResult:
    """One pass: wall time, per-item timings, quality, fingerprint."""

    wall: float = 0.0
    item_a: List[float] = field(default_factory=list)
    item_b: List[float] = field(default_factory=list)
    l2_rel: float = float("nan")
    #: raw quality figures, printed but not gated
    quality: Dict[str, float] = field(default_factory=dict)
    #: further per-item timings, printed but not gated
    extra: Dict[str, List[float]] = field(default_factory=dict)
    fingerprint: str = ""
    attempted: int = 0
    failed: int = 0
    error: Optional[str] = None


def fingerprint(*parts) -> str:
    """Exact digest of arrays and numbers (bitwise, not rounded)."""
    digest = hashlib.sha256()
    for part in parts:
        array = np.ascontiguousarray(np.asarray(part, dtype=np.float64))
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _failed_pass(out: PassResult, exc: Exception) -> PassResult:
    """A pass that raised fails every operation it attempted."""
    out.failed = out.attempted
    out.error = f"{type(exc).__name__}: {exc}"
    return out


def _pipeline(scale: Scale, seed: int) -> Pipeline:
    clear_cache()  # every set-up pays the kernel build, as a fresh run does
    config = ExperimentConfig(grid=scale.grid, dataset_size=scale.dataset_size,
                              pretrain_iterations=scale.setup_pretrain,
                              gan_iterations=scale.setup_gan,
                              ilt_iterations=scale.ilt_iterations,
                              refine_iterations=scale.refine_iterations,
                              seed=seed)
    pipeline = Pipeline.build(config)
    pipeline.dataset.precompute()
    return pipeline


def join_children(timeout: float = 30.0) -> None:
    """Wait for every child process this one started to end: pool
    workers first (terminated, then killed, if they outstay
    ``timeout``), then multiprocessing's resource tracker, which the
    pool's shared memory starts and which would otherwise outlive this
    process."""
    for child in multiprocessing.active_children():
        child.join(timeout)
    for stop in ("terminate", "kill"):
        for child in multiprocessing.active_children():
            getattr(child, stop)()
            child.join(5.0)
    _stop_resource_tracker(timeout)


def _stop_resource_tracker(timeout: float) -> None:
    """Close the tracker's pipe (it exits on end of file once no process
    holds the pipe open) and reap it, killing it after ``timeout``."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None or pid is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:  # already reaped
        pass


def identical(passes: List[PassResult]) -> bool:
    """True when every pass produced bit-identical outputs."""
    return len({p.fingerprint for p in passes}) == 1


# ----------------------------------------------------------------------
# table2: the paper's experiment
# ----------------------------------------------------------------------
class Table2:
    """ILT vs GAN-OPC vs PGAN-OPC over fixed suite clips, evaluated over
    the ``window`` corner set (reporting only), with quality records
    streamed to a :class:`RunLogger`, as ``repro table2`` does.  The
    seed only orders the clips."""

    METHODS = ("ILT", "GAN-OPC", "PGAN-OPC")

    def setup(self, scale: Scale, seed: int, workdir: str):
        pipeline = _pipeline(scale, TABLE2_GENERATOR_SEED)
        generators = train_generators(pipeline)
        order = np.random.default_rng(seed).permutation(len(scale.clips))
        clips = [make_clip(scale.clips[i], pipeline.litho) for i in order]
        target_px = sum(float((rasterize(clip.layout, scale.grid) >= 0.5)
                              .sum()) for clip in clips)
        conditions = ConditionSet.parse(
            "window", dose_variation=pipeline.litho.dose_variation)
        return {"pipeline": pipeline, "generators": generators,
                "clips": clips, "target_px": target_px,
                "conditions": conditions, "workdir": workdir, "passes": 0,
                "pixel_nm2": scale.pixel_nm ** 2}

    def run_pass(self, state) -> PassResult:
        out = PassResult(attempted=len(state["clips"]) * len(self.METHODS))
        state["passes"] += 1
        path = os.path.join(state["workdir"],
                            f"table2-{state['passes']}.jsonl")
        try:
            with RunLogger(path, "table2") as logger:
                started = time.perf_counter()
                result = run_table2(state["pipeline"], state["generators"],
                                    clips=state["clips"],
                                    conditions=state["conditions"],
                                    logger=logger)
                out.wall = time.perf_counter() - started
        except Exception as exc:
            return _failed_pass(out, exc)
        parts = []
        l2_px = 0.0
        for method in self.METHODS:
            evals = result.columns[method]
            for evaluation, mask in zip(evals, result.masks[method]):
                if not _finite(evaluation.l2_nm2, evaluation.pvband_nm2,
                               evaluation.runtime_seconds):
                    out.failed += 1
                parts += [mask, evaluation.l2_nm2, evaluation.pvband_nm2]
                l2_px += evaluation.l2_nm2 / state["pixel_nm2"]
            key = method.lower().replace("-", "")
            out.extra[key] = [e.runtime_seconds for e in evals]
            out.quality[f"{key}_l2_nm2"] = float(np.mean(
                [e.l2_nm2 for e in evals]))
            out.quality[f"{key}_pvb_nm2"] = float(np.mean(
                [e.pvband_nm2 for e in evals]))
        out.item_a = out.extra["ilt"]
        out.item_b = out.extra["pganopc"]
        out.l2_rel = l2_px / (len(self.METHODS) * state["target_px"])
        out.fingerprint = fingerprint(*parts)
        return out

    def checks(self, state, passes: List[PassResult]) -> Dict[str, bool]:
        return {"table2_passes_identical": identical(passes)}

    def close(self, state) -> None:
        pass


# ----------------------------------------------------------------------
# train: Algorithm 2 pretrain steps, then Algorithm 1 GAN iterations
# ----------------------------------------------------------------------
class Train:
    """Batch-4 training at the benchmark grid.  Every pass restarts from
    the same weights, optimizer state and batches, so passes repeat."""

    def setup(self, scale: Scale, seed: int, workdir: str):
        pipeline = _pipeline(scale, seed)
        config = pipeline.gan_config()
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(seed + 1))
        discriminator = PairDiscriminator(scale.grid,
                                          config.discriminator_channels,
                                          rng=np.random.default_rng(seed + 2))
        pretrainer = ILTGuidedPretrainer(generator, pipeline.litho, config,
                                         engine=pipeline.engine)
        trainer = GanOpcTrainer(generator, discriminator, config)
        rng = np.random.default_rng(seed + 3)
        dataset = pipeline.dataset
        size = config.batch_size
        pretrain_batches = [
            dataset.targets_batch(rng.choice(len(dataset), size=size))
            for _ in range(scale.train_pretrain)]
        gan_batches = [
            dataset.pairs_batch(rng.choice(len(dataset), size=size))
            for _ in range(scale.train_gan)]
        optimizers = (pretrainer.optimizer, trainer.optimizer_g,
                      trainer.optimizer_d)
        initial = (generator.state_dict(), discriminator.state_dict(),
                   [opt.state_dict() for opt in optimizers])
        return {"generator": generator, "discriminator": discriminator,
                "pretrainer": pretrainer, "trainer": trainer,
                "optimizers": optimizers,
                "pretrain_batches": pretrain_batches,
                "gan_batches": gan_batches, "initial": initial}

    def run_pass(self, state) -> PassResult:
        generator, discriminator = state["generator"], state["discriminator"]
        weights_g, weights_d, optimizer_states = state["initial"]
        generator.load_state_dict(weights_g)
        discriminator.load_state_dict(weights_d)
        for opt, saved in zip(state["optimizers"], optimizer_states):
            opt.load_state_dict(saved)
        generator.train()
        discriminator.train()

        out = PassResult(attempted=len(state["pretrain_batches"])
                         + len(state["gan_batches"]))
        losses = []
        l2_rel = []
        try:
            started = time.perf_counter()
            for targets in state["pretrain_batches"]:
                step_started = time.perf_counter()
                error = state["pretrainer"].step(targets)
                out.item_a.append(time.perf_counter() - step_started)
                losses.append(error)
                out.failed += not _finite(error)
            for targets, masks in state["gan_batches"]:
                step_started = time.perf_counter()
                loss_g, loss_d, l2 = state["trainer"].train_iteration(
                    targets, masks)
                out.item_b.append(time.perf_counter() - step_started)
                losses += [loss_g, loss_d, l2]
                l2_rel.append(l2 / float(masks.sum()))
                out.failed += not _finite(loss_g, loss_d, l2)
            out.wall = time.perf_counter() - started
        except Exception as exc:
            return _failed_pass(out, exc)
        out.l2_rel = float(np.mean(l2_rel))
        out.quality["pretrain_error"] = float(
            losses[len(state["pretrain_batches"]) - 1])
        out.quality["gan_l2_to_reference"] = float(losses[-1])
        out.fingerprint = fingerprint(losses,
                                      *generator.state_dict().values())
        return out

    def checks(self, state, passes: List[PassResult]) -> Dict[str, bool]:
        before_g, before_d, _ = state["initial"]
        after_g = state["generator"].state_dict()
        after_d = state["discriminator"].state_dict()
        changed = (any(not np.array_equal(before_g[k], after_g[k])
                       for k in before_g)
                   and any(not np.array_equal(before_d[k], after_d[k])
                           for k in before_d))
        return {"train_weights_change": changed,
                "train_passes_identical": identical(passes)}

    def close(self, state) -> None:
        pass


# ----------------------------------------------------------------------
# chip: tiled GAN-OPC flow on the worker pool
# ----------------------------------------------------------------------
def _warm_worker(grid: int) -> int:
    """Pool warm-up task: build the worker's engine and image once."""
    worker_engine().aerial(np.zeros((grid, grid)))
    return os.getpid()


class Chip:
    """``tiled_flow`` over a 3x3-tile synthetic chip (one cell per tile
    core) on a warm :class:`WorkerPool`; tiles refine a fixed number of
    iterations (no early stop), so every tile does the same work
    whatever the layout."""

    def setup(self, scale: Scale, seed: int, workdir: str):
        pipeline = _pipeline(scale, seed)
        generator = train_generators(pipeline).pgan
        tiling = TilingConfig(tile=scale.tile, halo=scale.halo,
                              blend=scale.blend)
        core_nm = (scale.tile - 2 * scale.halo) * scale.pixel_nm
        chip = synthesize_chip(ChipConfig(cells=3, cell_extent=core_nm,
                                          fill_probability=1.0),
                               seed=seed, name="bench-chip")
        chip_grid = int(round(chip.extent / scale.pixel_nm))
        target = (rasterize(chip, chip_grid) >= 0.5).astype(float)
        pool = WorkerPool(CHIP_WORKERS, litho_config=pipeline.litho,
                          state=generator_payload(generator))
        try:
            for _ in range(5):
                pids = pool.map(_warm_worker,
                                [(scale.grid,)] * (2 * CHIP_WORKERS),
                                label="bench.warm")
                if len(set(pids)) == CHIP_WORKERS:
                    break
        except BaseException:
            self.close({"pool": pool})
            raise
        return {"pipeline": pipeline, "generator": generator,
                "target": target, "pool": pool, "tiling": tiling,
                "tiles": len(tiling.grid_for(chip_grid).tiles()),
                "refine": ILTConfig(max_iterations=scale.chip_refine,
                                    patience=None)}

    def _flow(self, state, pool: Optional[WorkerPool]):
        return tiled_flow(state["generator"], state["target"],
                          state["tiling"], state["pipeline"].litho,
                          state["refine"], pool=pool)

    def run_pass(self, state) -> PassResult:
        pool = state["pool"]
        records_before = len(pool.stats.task_records)
        out = PassResult(attempted=state["tiles"])
        try:
            started = time.perf_counter()
            result = self._flow(state, pool)
            out.wall = time.perf_counter() - started
        except Exception as exc:
            return _failed_pass(out, exc)
        records = pool.stats.task_records[records_before:]
        busy: Dict[int, float] = {}
        for pid, seconds in records:
            busy[pid] = busy.get(pid, 0.0) + seconds
        out.item_a = [seconds for _, seconds in records]
        out.item_b = [max(busy.values())]
        out.failed = int(np.sum(~np.isfinite(result.tile_l2)))
        out.l2_rel = result.l2 / float(state["target"].sum())
        out.quality["chip_l2_px"] = float(result.l2)
        out.quality["tiles_skipped"] = float(result.tiles_skipped)
        out.fingerprint = fingerprint(result.mask, result.mask_relaxed,
                                      result.tile_l2)
        state["last"] = result
        return out

    def checks(self, state, passes: List[PassResult]) -> Dict[str, bool]:
        serial = self._flow(state, None)
        pooled = state["last"]
        return {"chip_pool_equals_serial":
                bool(np.array_equal(serial.mask, pooled.mask)
                     and np.array_equal(serial.mask_relaxed,
                                        pooled.mask_relaxed)
                     and serial.l2 == pooled.l2),
                "chip_passes_identical": identical(passes)}

    def close(self, state) -> None:
        state["pool"].shutdown()
        join_children()


WORKLOADS = {"table2": Table2(), "train": Train(), "chip": Chip()}
