"""Substrate performance benchmarks.

Not a paper table — these measure the throughput of the pieces every
experiment is built on (the numbers that determine how far above the
CPU scale a user can push):

* aerial-image simulation (Eq. 2) per grid size,
* one ILT gradient step (Eq. 14),
* the unified engine's forward and adjoint throughput, batch 1 vs 8,
* f32 vs f64 engine throughput (the precision fast path),
* f64 vs f32 ILT-guided pretrain steps (end-to-end f32 training),
* serial vs multiprocess per-clip ILT (the ``repro.parallel`` layer),
* one generator forward pass,
* one full Algorithm 1 training iteration.

The engine benchmarks also pin the perf-work acceptance bars: a single
batched :class:`LithoEngine` gradient call must be at least twice as
fast as looping the pre-refactor single-image implementation over the
same batch (64 px, batch 8); the f32 engine forward must be at least
1.3x the f64 forward; a full f32 pretrain step must be at least 1.5x
the f64 step (64 px, batch 8); and on machines with >= 4 cores,
parallel per-clip ILT must be at least 2x the serial loop.  The two
f32 bars time f64 and f32 in alternating rounds, so a host slowdown
hits both sides instead of moving their ratio.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.bench.record import BenchRecorder
from repro.core import (GanOpcConfig, GanOpcTrainer, MaskGenerator,
                        PairDiscriminator)
from repro.core.flow import GanOpcFlow
from repro.ilt.optimizer import ILTConfig
from repro.litho import LithoConfig, LithoEngine, build_kernels
from repro.numerics import stable_sigmoid

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _wire_mask(grid):
    mask = np.zeros((grid, grid))
    width = grid // 8
    mask[grid // 2 - width // 2: grid // 2 + width // 2,
         grid // 8: grid - grid // 8] = 1.0
    return mask


@pytest.mark.parametrize("grid", [64, 128, 256])
def test_aerial_image_throughput(grid, benchmark):
    engine = LithoEngine.for_kernels(build_kernels(LithoConfig.small(grid)))
    mask = _wire_mask(grid)
    benchmark(engine.aerial, mask)


@pytest.mark.parametrize("grid", [64, 128])
def test_ilt_gradient_step(grid, benchmark):
    engine = LithoEngine.for_kernels(build_kernels(LithoConfig.small(grid)))
    target = _wire_mask(grid)
    params = 2.0 * target - 1.0
    benchmark(engine.error_and_gradient, params, target)


def _noop_task():
    """Module-level no-op for the pool-overhead benchmark entry."""
    return 0


def _mask_batch(grid, batch):
    rng = np.random.default_rng(7)
    masks = rng.random((batch, grid, grid))
    masks[:, grid // 4: 3 * grid // 4, grid // 4: 3 * grid // 4] += 0.5
    return np.clip(masks, 0.0, 1.0)


def _target_batch(grid, batch):
    rng = np.random.default_rng(11)
    return (rng.random((batch, grid, grid)) > 0.7).astype(float)


def _legacy_gradient_wrt_mask(mask, target, kernels, threshold, steepness):
    """The pre-refactor single-image path, verbatim: plain ``fft2``,
    per-call flipped-kernel recompute, per-kernel inverse transforms."""
    spectrum = np.fft.fft2(mask)
    fields = np.fft.ifft2(spectrum[None] * kernels.full_grid(),
                          axes=(-2, -1))
    intensity = np.einsum("k,kxy->xy", kernels.weights,
                          np.abs(fields) ** 2)
    wafer = stable_sigmoid(steepness * (intensity - threshold))
    diff = wafer - target
    grad_intensity = 2.0 * steepness * diff * wafer * (1.0 - wafer)
    flipped = np.roll(kernels.full_grid()[:, ::-1, ::-1], 1, axis=(-2, -1))
    weighted = grad_intensity[None] * np.conj(fields)
    grad = np.fft.ifft2(np.fft.fft2(weighted, axes=(-2, -1)) * flipped,
                        axes=(-2, -1))
    grad = 2.0 * np.einsum("k,kxy->xy", kernels.weights, grad.real)
    return float(np.sum(diff * diff)), grad


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("grid", [64, 128])
def test_engine_forward_throughput(grid, batch, benchmark):
    engine = LithoEngine.for_kernels(build_kernels(LithoConfig.small(grid)))
    masks = _mask_batch(grid, batch)
    benchmark(engine.aerial, masks)


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("grid", [64, 128])
def test_engine_gradient_throughput(grid, batch, benchmark):
    engine = LithoEngine.for_kernels(build_kernels(LithoConfig.small(grid)))
    masks = _mask_batch(grid, batch)
    targets = _target_batch(grid, batch)
    benchmark(engine.error_and_gradient_wrt_mask, masks, targets)


def test_batched_gradient_at_least_2x_per_sample_loop():
    """The refactor's acceptance bar: one batched engine call beats the
    legacy per-sample loop by >= 2x at 64 px, batch 8."""
    grid, batch = 64, 8
    config = LithoConfig.small(grid)
    kernels = build_kernels(config)
    engine = LithoEngine.for_kernels(kernels)
    masks = _mask_batch(grid, batch)
    targets = _target_batch(grid, batch)

    def batched():
        return engine.error_and_gradient_wrt_mask(masks, targets)

    def legacy_loop():
        for i in range(batch):
            _legacy_gradient_wrt_mask(masks[i], targets[i], kernels,
                                      config.threshold,
                                      config.resist_steepness)

    def best_of(fn, repeats=5):
        fn()  # warm-up
        timings = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            timings.append(time.perf_counter() - start)
        return min(timings)

    t_batched = best_of(batched)
    t_loop = best_of(legacy_loop)
    speedup = t_loop / t_batched
    print(f"\nbatched {t_batched * 1e3:.1f} ms vs per-sample loop "
          f"{t_loop * 1e3:.1f} ms -> {speedup:.2f}x")
    assert speedup >= 2.0

    # And it is not a different computation: parity with the legacy path.
    errors, grads = engine.error_and_gradient_wrt_mask(masks, targets)
    for i in range(batch):
        ref_error, ref_grad = _legacy_gradient_wrt_mask(
            masks[i], targets[i], kernels, config.threshold,
            config.resist_steepness)
        np.testing.assert_allclose(errors[i], ref_error, rtol=1e-10)
        np.testing.assert_allclose(grads[i], ref_grad,
                                   rtol=1e-10, atol=1e-10)


def test_f32_forward_at_least_1p3x_f64():
    """Precision fast path acceptance bar: the f32 engine forward must
    be at least 1.3x the f64 forward (64 px, batch 8)."""
    from repro.bench.record import measure_interleaved

    grid, batch = 64, 8
    kernels = build_kernels(LithoConfig.small(grid))
    engine64 = LithoEngine.for_kernels(kernels, precision="f64")
    engine32 = LithoEngine.for_kernels(kernels, precision="f32")
    masks = _mask_batch(grid, batch)

    t64, t32 = measure_interleaved(lambda: engine64.aerial(masks),
                                   lambda: engine32.aerial(masks),
                                   rounds=7)
    speedup = t64 / t32
    print(f"\nf64 forward {t64 * 1e3:.1f} ms vs f32 "
          f"{t32 * 1e3:.1f} ms -> {speedup:.2f}x")
    assert speedup >= 1.3


def _pretrainer(kernels, precision, batch):
    """A warm ILT-guided pretrainer + batch at the given precision."""
    from dataclasses import replace

    from repro import nn
    from repro.core import ILTGuidedPretrainer
    from repro.layoutgen import SyntheticDataset

    grid = kernels.config.grid
    litho = LithoConfig.small(grid)
    config = replace(GanOpcConfig.small(grid), batch_size=batch)
    engine = LithoEngine.for_kernels(kernels, precision=precision)
    generator = MaskGenerator(config.generator_channels,
                              rng=np.random.default_rng(0))
    if precision == "f32":
        nn.to_dtype(generator, np.float32)
    dataset = SyntheticDataset(litho, size=batch, seed=0, kernels=kernels)
    pretrainer = ILTGuidedPretrainer(generator, litho, config, engine=engine)
    targets = dataset.targets_batch(list(range(batch)))
    pretrainer.step(targets)  # warm caches, JIT nothing — numpy only
    return pretrainer, targets


def test_f32_pretrain_step_at_least_1p5x_f64():
    """End-to-end f32 acceptance bar: a full ILT-guided pretrain step
    (generator forward + litho gradient + backward + Adam) in f32 must
    be at least 1.5x the f64 step (64 px, batch 8).  This is the
    headline win of the dtype threading — it only holds if *no* stage
    silently promotes back to double."""
    from repro.bench.record import measure_interleaved

    grid, batch = 64, 8
    kernels = build_kernels(LithoConfig.small(grid))
    pre64, targets64 = _pretrainer(kernels, "f64", batch)
    pre32, targets32 = _pretrainer(kernels, "f32", batch)

    t64, t32 = measure_interleaved(lambda: pre64.step(targets64),
                                   lambda: pre32.step(targets32),
                                   rounds=7)
    speedup = t64 / t32
    print(f"\nf64 pretrain step {t64 * 1e3:.1f} ms vs f32 "
          f"{t32 * 1e3:.1f} ms -> {speedup:.2f}x")
    assert speedup >= 1.5


def _corner_grid(config):
    """C=4 corner stack (2 defocus x 2 dose) and the per-defocus nominal
    engines a per-corner loop would have to use."""
    from dataclasses import replace

    from repro.litho import ConditionSet

    conditions = ConditionSet.grid(defocuses=(0.0, 40.0),
                                   doses=(0.98, 1.02))
    per_defocus = {
        defocus: LithoEngine.for_kernels(build_kernels(
            replace(config, optics=replace(config.optics, defocus=defocus))))
        for defocus in conditions.defocuses
    }
    return conditions, per_defocus


def test_condition_stack_at_least_1p3x_per_corner_loop():
    """Condition-stack acceptance bar: one stacked ``condition_aerial``
    over a C=4 (2 defocus x 2 dose) corner grid must be at least 1.3x
    looping per-corner forwards on per-defocus nominal engines
    (64 px, batch 8).  The stack shares the mask spectrum and the dose
    axis, so 4 corners cost ~2 forwards."""
    from repro.bench.record import measure

    grid, batch = 64, 8
    config = LithoConfig.small(grid)
    conditions, per_defocus = _corner_grid(config)
    stacked = LithoEngine.for_conditions(
        per_defocus[0.0].kernels, conditions)
    masks = _mask_batch(grid, batch)

    def stacked_forward():
        return stacked.condition_aerial(masks)

    def per_corner_loop():
        for corner in conditions:
            per_defocus[corner.defocus].aerial(masks) * corner.dose

    t_stacked = measure(stacked_forward, repeats=7)
    t_loop = measure(per_corner_loop, repeats=7)
    speedup = t_loop / t_stacked
    print(f"\nstacked C=4 forward {t_stacked * 1e3:.1f} ms vs per-corner "
          f"loop {t_loop * 1e3:.1f} ms -> {speedup:.2f}x")
    assert speedup >= 1.3

    # Same physics: each stacked corner slab equals the looped corner.
    corner_stack = stacked.condition_aerial(masks)
    for c, corner in enumerate(conditions):
        ref = per_defocus[corner.defocus].aerial(masks) * corner.dose
        np.testing.assert_allclose(corner_stack[:, c], ref,
                                   rtol=1e-12, atol=1e-12)


def test_parallel_ilt_at_least_2x_serial():
    """Parallel layer acceptance bar: per-clip ILT fanned across 4
    workers must be at least 2x the serial loop.  Only meaningful with
    real cores to fan across, so skipped below 4."""
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"needs >= 4 cores to assert scaling, have {cores}")
    from repro.bench.record import measure
    from repro.parallel import WorkerPool, parallel_ilt

    grid, batch, workers = 32, 8, 4
    config = LithoConfig.small(grid)
    ilt_config = ILTConfig(max_iterations=25)
    rng = np.random.default_rng(3)
    targets = (rng.random((batch, grid, grid)) > 0.75).astype(float)

    with WorkerPool(workers, litho_config=config) as pool:
        # Warm the pool outside the timed region: worker startup and
        # kernel loading are one-time costs an experiment amortizes
        # over thousands of clips.
        parallel_ilt(targets[:workers], config, ilt_config, pool=pool)
        t_parallel = measure(
            lambda: parallel_ilt(targets, config, ilt_config, pool=pool),
            repeats=3)
    t_serial = measure(
        lambda: parallel_ilt(targets, config, ilt_config, workers=1),
        repeats=3)
    speedup = t_serial / t_parallel
    print(f"\nserial ILT {t_serial:.2f} s vs {workers} workers "
          f"{t_parallel:.2f} s -> {speedup:.2f}x")
    assert speedup >= 2.0


def test_write_bench_substrate_record():
    """Persist the substrate numbers as ``BENCH_substrate.json``.

    Unlike the pytest-benchmark tables above, this record is
    machine-readable and checked in at the repo root, so later changes
    can diff their engine throughput and flow stage split against it.
    """
    from repro.litho.kernels import config_hash

    grid = 64
    recorder = BenchRecorder("substrate",
                             config_hash=config_hash(LithoConfig.small(grid)))
    kernels = build_kernels(LithoConfig.small(grid))
    engine = LithoEngine.for_kernels(kernels, precision="f64")
    engine32 = LithoEngine.for_kernels(kernels, precision="f32")
    for batch in (1, 8):
        masks = _mask_batch(grid, batch)
        targets = _target_batch(grid, batch)
        recorder.timeit(f"engine_forward/grid{grid}/batch{batch}",
                        lambda: engine.aerial(masks),
                        grid=grid, batch=batch)
        recorder.timeit(
            f"engine_gradient/grid{grid}/batch{batch}",
            lambda: engine.error_and_gradient_wrt_mask(masks, targets),
            grid=grid, batch=batch)
        recorder.timeit(f"engine_forward_f32/grid{grid}/batch{batch}",
                        lambda: engine32.aerial(masks),
                        grid=grid, batch=batch)
        recorder.timeit(
            f"engine_gradient_f32/grid{grid}/batch{batch}",
            lambda: engine32.error_and_gradient_wrt_mask(masks, targets),
            grid=grid, batch=batch)

    # A full ILT-guided pretrain step records the end-to-end f64 vs
    # f32 training throughput the 1.5x acceptance bar gates.
    batch = 8
    for precision in ("f64", "f32"):
        pretrainer, pre_targets = _pretrainer(kernels, precision, batch)
        recorder.timeit(
            f"pretrain_step/grid{grid}/batch{batch}/{precision}",
            lambda: pretrainer.step(pre_targets),
            grid=grid, batch=batch, precision=precision, repeats=3)

    # Condition-stack throughput: C=4 corners (2 defocus x 2 dose)
    # through one stacked forward/adjoint, plus the per-corner loop it
    # replaces (per-defocus nominal engines), so the stacking win stays
    # visible in the record.
    config = LithoConfig.small(grid)
    conditions, per_defocus = _corner_grid(config)
    stacked = LithoEngine.for_conditions(per_defocus[0.0].kernels,
                                         conditions)
    for batch in (1, 8):
        masks = _mask_batch(grid, batch)
        targets = _target_batch(grid, batch)
        recorder.timeit(
            f"engine_condition_forward/grid{grid}/batch{batch}/corners4",
            lambda: stacked.condition_aerial(masks),
            grid=grid, batch=batch, corners=4)
        recorder.timeit(
            f"engine_condition_gradient/grid{grid}/batch{batch}/corners4",
            lambda: stacked.condition_error_and_gradient_wrt_mask(
                masks, targets, objective="weighted"),
            grid=grid, batch=batch, corners=4)
        recorder.timeit(
            f"engine_condition_loop_forward/grid{grid}/batch{batch}"
            f"/corners4",
            lambda: [per_defocus[c.defocus].aerial(masks) * c.dose
                     for c in conditions],
            grid=grid, batch=batch, corners=4)

    # Serial vs multiprocess per-clip ILT.  The parallel entry is only
    # recorded when there are real cores to fan across, so the checked-in
    # record stays comparable across machines.
    from repro.parallel import WorkerPool, parallel_ilt

    ilt_grid, ilt_batch = 32, 4
    ilt_litho = LithoConfig.small(ilt_grid)
    ilt_config = ILTConfig(max_iterations=20)
    rng = np.random.default_rng(3)
    ilt_targets = (rng.random((ilt_batch, ilt_grid, ilt_grid))
                   > 0.75).astype(float)
    recorder.timeit(
        f"serial_ilt/grid{ilt_grid}/batch{ilt_batch}",
        lambda: parallel_ilt(ilt_targets, ilt_litho, ilt_config, workers=1),
        grid=ilt_grid, batch=ilt_batch, repeats=3)
    cores = os.cpu_count() or 1
    if cores >= 4:
        workers = 4
        with WorkerPool(workers, litho_config=ilt_litho) as pool:
            parallel_ilt(ilt_targets, ilt_litho, ilt_config, pool=pool)
            recorder.timeit(
                f"parallel_ilt/grid{ilt_grid}/batch{ilt_batch}"
                f"/workers{workers}",
                lambda: parallel_ilt(ilt_targets, ilt_litho, ilt_config,
                                     pool=pool),
                grid=ilt_grid, batch=ilt_batch, repeats=3)

    # Tiled full-chip throughput: a 2x2-cell chip (64 px at 8 nm/px)
    # through the halo-overlap tile decomposition, serial and (with
    # real cores) fanned over the worker pool.  Tiles per second is the
    # number a full-chip run divides into its tile count.
    from repro.layoutgen import ChipConfig, synthesize_chip
    from repro.geometry import binarize, rasterize
    from repro.tiling import TilingConfig, tiled_ilt

    tiling = TilingConfig(tile=32, halo=4)
    tile_litho = LithoConfig.small(tiling.tile)
    tile_ilt = ILTConfig(max_iterations=10)
    chip = synthesize_chip(
        ChipConfig(cells=2, cell_extent=256.0, fill_probability=1.0),
        seed=5)
    chip_target = binarize(rasterize(chip, 64))
    n_tiles = tiling.grid_for(chip_target.shape[0]).rows ** 2
    recorder.timeit(
        f"tiling_ilt_serial/chip64/tile{tiling.tile}/halo{tiling.halo}",
        lambda: tiled_ilt(chip_target, tiling, tile_litho, tile_ilt,
                          workers=1),
        grid=tiling.tile, batch=n_tiles, repeats=3)
    if cores >= 4:
        workers = 4
        with WorkerPool(workers, litho_config=tile_litho) as pool:
            tiled_ilt(chip_target, tiling, tile_litho, tile_ilt, pool=pool)
            recorder.timeit(
                f"tiling_ilt_parallel/chip64/tile{tiling.tile}"
                f"/halo{tiling.halo}/workers{workers}",
                lambda: tiled_ilt(chip_target, tiling, tile_litho,
                                  tile_ilt, pool=pool),
                grid=tiling.tile, batch=n_tiles, repeats=3)

    # Observability overhead (gated in CI via --require obs_overhead_):
    # (a) one disabled trace.span — what instrumentation costs hot
    # paths while tracing is off; (b) the pool's per-task round trip
    # on no-op tasks — submit, engine-snapshot bookkeeping, result and
    # telemetry absorption — tracing disabled.
    from repro.obs import trace as obs_trace
    assert not obs_trace.is_enabled()
    span_iters = 20000

    def _disabled_span_loop():
        for _ in range(span_iters):
            with obs_trace.span("bench-probe"):
                pass

    recorder.timeit(f"obs_overhead_disabled_span/iters{span_iters}",
                    _disabled_span_loop, batch=span_iters, repeats=5)
    pool_tasks = 32
    with WorkerPool(2, litho_config=ilt_litho) as pool:
        pool.map(_noop_task, [() for _ in range(8)])  # warm workers
        recorder.timeit(
            f"obs_overhead_pool_map_noop/tasks{pool_tasks}/workers2",
            lambda: pool.map(_noop_task, [() for _ in range(pool_tasks)]),
            batch=pool_tasks, repeats=3)

    # Per-stage breakdown of the end-to-end flow: generator inference
    # vs ILT refinement (the split behind Table 2's runtime column).
    flow_grid = 32
    config = LithoConfig.small(flow_grid)
    gan_cfg = GanOpcConfig.small(flow_grid)
    generator = MaskGenerator(gan_cfg.generator_channels,
                              rng=np.random.default_rng(0))
    generator.eval()
    flow = GanOpcFlow(generator, config,
                      ILTConfig(max_iterations=10, patience=4))
    result = flow.optimize(_wire_mask(flow_grid))
    recorder.add(f"flow_generation/grid{flow_grid}",
                 result.generation_seconds, grid=flow_grid)
    recorder.add(f"flow_refinement/grid{flow_grid}",
                 result.refinement_seconds, grid=flow_grid,
                 iterations=float(result.ilt_result.iterations))

    path = recorder.write(os.path.join(REPO_ROOT, "BENCH_substrate.json"))
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["benchmark"] == "substrate"
    assert record["schema"] == 1
    entries = record["entries"]
    assert f"engine_forward/grid{grid}/batch8" in entries
    assert f"engine_gradient/grid{grid}/batch1" in entries
    assert f"engine_forward_f32/grid{grid}/batch8" in entries
    assert f"pretrain_step/grid{grid}/batch8/f64" in entries
    assert f"pretrain_step/grid{grid}/batch8/f32" in entries
    assert f"engine_condition_forward/grid{grid}/batch8/corners4" in entries
    assert f"engine_condition_gradient/grid{grid}/batch1/corners4" in entries
    assert (f"engine_condition_loop_forward/grid{grid}/batch8/corners4"
            in entries)
    assert f"serial_ilt/grid{ilt_grid}/batch{ilt_batch}" in entries
    assert (f"tiling_ilt_serial/chip64/tile{tiling.tile}/halo{tiling.halo}"
            in entries)
    assert f"flow_generation/grid{flow_grid}" in entries
    assert f"obs_overhead_disabled_span/iters{span_iters}" in entries
    assert (f"obs_overhead_pool_map_noop/tasks{pool_tasks}/workers2"
            in entries)
    for name, entry in entries.items():
        assert entry["seconds"] >= 0.0, name
    assert entries[f"engine_forward/grid{grid}/batch8"][
        "throughput_per_second"] > 0.0


def test_generator_forward(benchmark):
    config = GanOpcConfig.small(64)
    generator = MaskGenerator(config.generator_channels,
                              rng=np.random.default_rng(0))
    generator.eval()
    target = _wire_mask(64)
    benchmark(generator.generate, target)


def test_algorithm1_iteration(benchmark):
    config = GanOpcConfig.small(64)
    generator = MaskGenerator(config.generator_channels,
                              rng=np.random.default_rng(0))
    discriminator = PairDiscriminator(64, config.discriminator_channels,
                                      rng=np.random.default_rng(1))
    trainer = GanOpcTrainer(generator, discriminator, config)
    rng = np.random.default_rng(2)
    targets = (rng.random((config.batch_size, 1, 64, 64)) > 0.8).astype(float)
    masks = np.clip(targets + 0.1 * rng.random(targets.shape), 0, 1)
    benchmark(trainer.train_iteration, targets, masks)
