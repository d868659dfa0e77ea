"""Command-line interface: ``python -m repro <command>``.

Exposes the main engines as shell commands so the repo is usable
without writing Python:

* ``synthesize`` — generate design-rule-clean clips as ``.glp`` files;
* ``chip``       — synthesize a chip-scale layout (cell array plus
  seam-crossing spanning wires) for the tiled flow;
* ``simulate``   — lithography-simulate a mask and report metrics;
* ``ilt``        — optimize a clip's mask with the ILT engine;
* ``sraf``       — insert assist features into a clip;
* ``train``      — run the training loops with the robustness
  substrate (checkpoint/resume, divergence guards, JSONL telemetry);
* ``flow``       — run the GAN-OPC flow with a trained checkpoint;
  ``flow --tiled`` (and ``ilt --tiled``) scale past the engine grid by
  halo-overlap tile decomposition (``--tile-size --halo --workers``)
  and print a live progress line (tiles done, ETA, utilization);
* ``table2``     — run the full Table 2 experiment at a chosen scale;
* ``profile``    — run a small end-to-end flow under the observability
  layer and emit a Perfetto-loadable Chrome trace plus per-op tables;
* ``runs``       — inspect the run ledger (``list``/``show``/``diff``);
* ``report``     — render a recorded run to self-contained HTML.

``ilt``, ``train``, ``flow`` and ``table2`` record every invocation in
the run ledger (``--runs-dir``, default ``.repro_runs/``; disable with
``--no-run-record``): a manifest (config hash, git rev, seed,
precision, argv, package versions) plus the run's one schema-validated
telemetry stream, ``quality.jsonl``, that ``runs diff`` and ``report``
read back (DESIGN.md §14).  A command writes telemetry exactly when it
is recorded.

``train`` and ``flow`` also accept ``--trace-dir`` for a Chrome
(Perfetto) trace; a recorded run also gets every finished span as a
``span`` record and one ``span_summary`` naming the trace file.  With
``--workers > 1`` the trace merges every worker's spans into one
pid-laned Chrome file (DESIGN.md §13).  Layouts move as GLP text
files, images as PGM; metrics print on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

import numpy as np


@contextlib.contextmanager
def _trace_to(run, trace_dir: Optional[str], prefix: str):
    """Scoped tracing for a CLI command.

    Every finished span goes into the run's stream as a ``span``
    record.  On exit the Chrome trace is written to
    ``<trace_dir>/<prefix>-trace.json``, followed by the run's one
    ``span_summary``, whose ``trace_file`` names it.  Without a run
    (``--no-run-record``) only the Chrome trace is written; a falsy
    ``trace_dir`` is a no-op.
    """
    if not trace_dir:
        yield None
        return
    import os

    from .obs import trace
    logger = run.logger if run is not None else None
    tracer = trace.enable(logger=logger)
    try:
        yield tracer
    finally:
        trace.disable()
        path = tracer.write_chrome_trace(
            os.path.join(trace_dir, f"{prefix}-trace.json"))
        if logger is not None:
            logger.span_summary(tracer.summary(),
                                wall_seconds=tracer.wall_seconds(),
                                coverage=tracer.coverage(),
                                trace_file=path)
        print(f"chrome trace written to {path} "
              f"(load in https://ui.perfetto.dev)")


@contextlib.contextmanager
def _run_record(args, command: str, litho=None, conditions=None,
                seed: Optional[int] = None, params: Optional[dict] = None):
    """Open a run in the ledger for the duration of a CLI command.

    Yields the :class:`~repro.runs.RunHandle` (or ``None`` under
    ``--no-run-record``); on exit stamps the finish time and status
    (``error`` when the command raised) into the manifest.  Commands
    put final metrics into ``run.manifest.summary`` and link artifacts
    before the block ends.
    """
    if getattr(args, "no_run_record", False):
        yield None
        return
    from .litho.engine import resolve_precision
    from .runs import RunStore
    store = RunStore(getattr(args, "runs_dir", None))
    precision = (resolve_precision(args.precision)
                 if hasattr(args, "precision") else None)
    run = store.create(command, argv=sys.argv[1:], litho=litho,
                       conditions=conditions, seed=seed,
                       precision=precision,
                       workers=getattr(args, "workers", None),
                       params=params)
    run.log_manifest_record()
    try:
        yield run
    except BaseException:
        run.finish(status="error")
        raise
    run.finish(status="complete")
    print(f"run recorded: {run.manifest.run_id} (store: {store.root})")


def _litho(args):
    from .litho import LithoConfig
    return LithoConfig.small(args.grid)


def _conditions(args, litho):
    """Parse ``--corners`` into a :class:`ConditionSet` (or ``None``).

    Accepts the presets (``nominal``/``dose``/``window``) and explicit
    ``defocus:dose[:weight]`` comma lists; the dose presets use the
    litho config's ``dose_variation``.
    """
    if not getattr(args, "corners", None):
        return None
    from .litho import ConditionSet
    try:
        return ConditionSet.parse(args.corners,
                                  dose_variation=litho.dose_variation)
    except ValueError as exc:
        print(f"error: --corners {args.corners!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _engine(litho, precision=None):
    """One shared engine per CLI invocation.

    Kernel construction goes through the two-level ``build_kernels``
    cache (in-process + on-disk), so repeated CLI runs at the same
    settings skip the eigendecomposition entirely.  ``precision``
    selects the compute dtype (``f32``/``f64``; ``None`` means f64).
    """
    from .litho import LithoEngine, build_kernels
    return LithoEngine.for_kernels(build_kernels(litho),
                                   precision=precision)


def _load_target(path: str, grid: int):
    from .geometry import binarize, glp, rasterize
    layout = glp.load(path)
    return layout, binarize(rasterize(layout, grid))


# ----------------------------------------------------------------------
def cmd_synthesize(args) -> int:
    from .geometry import glp
    from .layoutgen import LayoutSynthesizer, TopologyConfig

    litho = _litho(args)
    config = TopologyConfig(extent=litho.extent_nm,
                            margin=min(120.0, litho.extent_nm / 8.0))
    clips = LayoutSynthesizer(config).generate_batch(args.count,
                                                     seed=args.seed)
    for i, clip in enumerate(clips):
        path = f"{args.prefix}{i:04d}.glp"
        glp.save(clip, path)
        print(f"{path}: {len(clip)} shapes, {clip.pattern_area:.0f} nm^2")
    return 0


def cmd_chip(args) -> int:
    from .geometry import glp
    from .layoutgen import ChipConfig, synthesize_chip

    config = ChipConfig(cells=args.cells, cell_extent=args.cell_extent,
                        fill_probability=args.fill)
    chip = synthesize_chip(config, seed=args.seed, name="chip")
    glp.save(chip, args.out)
    pixel_nm = 8.0
    chip_grid = int(round(config.extent / pixel_nm))
    print(f"{args.out}: {args.cells}x{args.cells} cells, "
          f"{len(chip)} shapes, extent {config.extent:.0f} nm "
          f"({chip_grid}px at {pixel_nm:.0f} nm/px)")
    return 0


def _tiled_config(args):
    from .tiling import TilingConfig
    return TilingConfig(tile=args.tile_size, halo=args.halo)


def _chip_target(path: str, tiling_config, litho):
    """Load a layout and rasterize it at the chip scale.

    The chip raster keeps the tile litho config's pixel size, so the
    chip grid is the layout extent over the pixel — not limited to the
    engine grid.
    """
    from .geometry import binarize, glp, rasterize
    layout = glp.load(path)
    chip_grid = max(int(round(layout.extent / litho.pixel_nm)), 1)
    return layout, binarize(rasterize(layout, chip_grid))


#: Seconds between two tiled-run progress lines when stdout is not a
#: terminal (on a terminal the line is rewritten after every tile).
PROGRESS_PERIOD = 0.5


def _tile_progress(workers: int):
    """The ``progress`` callback ``tiled_ilt``/``tiled_flow`` take, as
    a live line: tiles done/total, elapsed, ETA, workers, and
    utilization, the tasks' summed seconds over elapsed × workers.

    On a terminal the line is rewritten in place; otherwise it prints
    at most every :data:`PROGRESS_PERIOD` seconds, plus the final line.
    """
    import time

    workers = max(workers, 1)  # fewer than 2 run inline, as one worker
    started = time.perf_counter()
    in_place = sys.stdout.isatty()
    busy = 0.0
    last_print = float("-inf")

    def progress(done: int, total: int, pid: int, seconds: float) -> None:
        nonlocal busy, last_print
        now = time.perf_counter()
        busy += seconds
        elapsed = now - started
        eta = (total - done) * elapsed / done
        util = busy / (elapsed * workers) if elapsed > 0 else 0.0
        line = (f"tiles {done:>4d}/{total:<4d}  elapsed {elapsed:7.1f}s  "
                f"eta {eta:7.1f}s  workers {workers}  "
                f"util {100.0 * util:5.1f}%")
        if in_place:
            sys.stdout.write("\r" + line + ("\n" if done == total else ""))
            sys.stdout.flush()
        elif done == total or now - last_print >= PROGRESS_PERIOD:
            last_print = now
            print(line, flush=True)

    return progress


def _print_tiled(result, out: Optional[str]) -> None:
    from .bench import write_pgm

    grid = result.tile_grid
    print(f"tiles: {result.tiles_total} "
          f"({grid.rows}x{grid.cols}, tile {grid.tile}px, "
          f"halo {grid.halo}px, core {grid.core}px), "
          f"skipped {result.tiles_skipped} empty")
    print(f"chip grid: {grid.chip_grid}px")
    print(f"core l2: {result.l2:.1f}")
    print(f"runtime: {result.runtime_seconds:.3f}s "
          f"({result.workers} workers)")
    if result.pool_stats is not None:
        print(result.pool_stats.format_table())
    if out:
        write_pgm(result.mask, out)
        print(f"mask written to {out}")


def _record_tiled(run, result, method: str) -> None:
    """Stream a tiled run's quality telemetry into its run record.

    One ``clip_result`` per non-empty tile (core-restricted L2), plus
    the pool's records (:meth:`~repro.parallel.pool.PoolStats.log_to`)
    when the run was parallel.
    """
    if run is None:
        return
    grid = result.tile_grid
    tile_l2 = np.asarray(result.tile_l2)
    for tile in grid.tiles():
        run.logger.clip_result(
            f"tile-r{tile.row}c{tile.col}", method,
            {"l2_px": float(tile_l2[tile.index])})
    stats = result.pool_stats
    if stats is not None:
        stats.log_to(run.logger)
        run.manifest.summary["litho"] = dict(stats.fleet.engine_totals)
    run.manifest.summary.update(
        {"l2_px": float(result.l2),
         "tiles_total": result.tiles_total,
         "tiles_skipped": result.tiles_skipped,
         "runtime_seconds": float(result.runtime_seconds)})


def cmd_simulate(args) -> int:
    from .bench import write_pgm
    from .metrics import evaluate_mask

    litho = _litho(args)
    layout, target = _load_target(args.clip, litho.grid)
    if args.mask:
        from .bench import read_pgm
        mask = (read_pgm(args.mask) >= 0.5).astype(float)
        if mask.shape != (litho.grid, litho.grid):
            print(f"error: mask is {mask.shape}, expected "
                  f"({litho.grid}, {litho.grid})", file=sys.stderr)
            return 2
    else:
        mask = target
    engine = _engine(litho, args.precision)
    evaluation = evaluate_mask(engine, mask, target, layout=layout,
                               name=layout.name or "clip")
    for key, value in evaluation.as_dict().items():
        print(f"{key}: {value}")
    if args.out:
        write_pgm(engine.wafer(mask), args.out)
        print(f"wafer image written to {args.out}")
    return 0


def cmd_ilt(args) -> int:
    from .bench import write_pgm
    from .ilt import ILTConfig, ILTOptimizer
    from .metrics import evaluate_mask

    if args.tiled:
        from .litho import LithoConfig
        from .tiling import tiled_ilt
        tiling = _tiled_config(args)
        litho = LithoConfig.small(tiling.tile)
        _, target = _chip_target(args.clip, tiling, litho)
        with _run_record(args, "ilt", litho=litho,
                         params={"clip": args.clip, "tiled": True,
                                 "iterations": args.iterations,
                                 "tile_size": args.tile_size,
                                 "halo": args.halo}) as run:
            result = tiled_ilt(target, tiling, litho,
                               ILTConfig(max_iterations=args.iterations),
                               workers=args.workers,
                               precision=args.precision,
                               progress=_tile_progress(args.workers))
            _record_tiled(run, result, "tiled-ILT")
        _print_tiled(result, args.out)
        return 0

    litho = _litho(args)
    engine = _engine(litho, args.precision)
    layout, target = _load_target(args.clip, litho.grid)
    optimizer = ILTOptimizer(litho, ILTConfig(max_iterations=args.iterations),
                             engine=engine)
    clip_name = layout.name or "clip"
    with _run_record(args, "ilt", litho=litho,
                     params={"clip": args.clip,
                             "iterations": args.iterations}) as run:
        stats_before = engine.stats.snapshot()
        if run is not None:
            optimizer.logger = run.logger
            optimizer.quality_context = {"clip": clip_name,
                                         "method": "ILT",
                                         "stage": "refinement"}
        result = optimizer.optimize(target)
        evaluation = evaluate_mask(engine, result.mask, target,
                                   layout=layout, name=clip_name,
                                   runtime_seconds=result.runtime_seconds)
        write_pgm(result.mask, args.out)
        if run is not None:
            from .runs import clip_metrics
            run.logger.clip_result(
                clip_name, "ILT", clip_metrics(evaluation),
                runtime_seconds=result.runtime_seconds,
                epe_hotspots=evaluation.epe_hotspots)
            run.manifest.summary["litho"] = engine.stats.delta(stats_before)
            run.add_artifact("mask", args.out)
            run.import_file("clip", args.clip)
    print(f"iterations: {result.iterations} (converged={result.converged})")
    for key, value in evaluation.as_dict().items():
        print(f"{key}: {value}")
    print(f"mask written to {args.out}")
    return 0


def cmd_sraf(args) -> int:
    from .geometry import glp
    from .opc import SrafConfig, assisted_mask_layout

    layout = glp.load(args.clip)
    config = SrafConfig(width=args.width, offset=args.offset)
    assisted = assisted_mask_layout(layout, config)
    glp.save(assisted, args.out)
    added = len(assisted) - len(layout)
    print(f"inserted {added} assist bars -> {args.out}")
    return 0


def cmd_train(args) -> int:
    import os
    from dataclasses import replace

    from . import nn
    from .core import (GanOpcConfig, GanOpcTrainer, ILTGuidedPretrainer,
                       MaskGenerator, PairDiscriminator)
    from .layoutgen import SyntheticDataset
    from .runtime import RunConfig

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    litho = _litho(args)
    engine = _engine(litho, args.precision)
    conditions = _conditions(args, litho)
    config = replace(GanOpcConfig.small(litho.grid),
                     batch_size=args.batch_size, seed=args.seed,
                     litho_weight=args.litho_weight,
                     pw_objective=args.pw_objective)
    dataset = SyntheticDataset(litho, size=args.dataset_size,
                               seed=args.seed, kernels=engine.kernels)
    generator = MaskGenerator(config.generator_channels,
                              rng=np.random.default_rng(args.seed))
    if args.init:
        nn.load_state(generator, args.init)
    if engine.precision == "f32":
        nn.to_dtype(generator, np.float32)
    if args.phase in ("gan", "both"):
        # Reference masks are the offline dataset stage and the serial
        # bottleneck of GAN training: build them up front (across worker
        # processes when given), so no GAN iteration's wall-clock or
        # litho counts include reference-mask ILT runs.
        if args.workers > 1:
            print(f"building reference masks with {args.workers} "
                  f"workers ...")
        dataset.precompute(workers=args.workers)

    with _run_record(args, "train", litho=litho, conditions=conditions,
                     seed=args.seed,
                     params={"phase": args.phase,
                             "iterations": args.iterations,
                             "dataset_size": args.dataset_size,
                             "batch_size": args.batch_size,
                             "litho_weight": args.litho_weight,
                             "policy": args.policy}) as run:
        logger = run.logger if run is not None else None

        def runtime(phase: str) -> RunConfig:
            checkpoint_dir = (os.path.join(args.checkpoint_dir, phase)
                              if args.checkpoint_dir else None)
            return RunConfig(checkpoint_dir=checkpoint_dir,
                             checkpoint_every=args.checkpoint_every,
                             keep_last=args.keep_last,
                             resume=args.resume,
                             logger=logger,
                             policy=args.policy,
                             max_grad_norm=args.max_grad_norm,
                             lr_backoff=args.lr_backoff)

        with _trace_to(run, args.trace_dir, "train"):
            if args.phase in ("pretrain", "both"):
                pretrainer = ILTGuidedPretrainer(generator, litho, config,
                                                 engine=engine,
                                                 conditions=conditions)
                history = pretrainer.train(dataset, args.iterations,
                                           verbose=args.verbose,
                                           runtime=runtime("pretrain"))
                final = (history.litho_error[-1]
                         if history.litho_error else float("nan"))
                print(f"pretrain: {history.iterations} iterations recorded, "
                      f"final litho error {final:.1f} "
                      f"({history.runtime_seconds:.2f}s)")
                if run is not None:
                    run.manifest.summary["pretrain"] = {
                        "iterations": history.iterations,
                        "final_litho_error": final,
                        "runtime_seconds": history.runtime_seconds}
            if args.phase in ("gan", "both"):
                discriminator = PairDiscriminator(
                    litho.grid, config.discriminator_channels,
                    rng=np.random.default_rng(args.seed + 1))
                if engine.precision == "f32":
                    # Both networks must share the compute dtype — a
                    # f64 discriminator would promote the adversarial
                    # loss (and the generator's gradients through it)
                    # back to double.
                    nn.to_dtype(discriminator, np.float32)
                trainer = GanOpcTrainer(generator, discriminator, config,
                                        litho_config=litho, engine=engine,
                                        conditions=conditions)
                history = trainer.train(dataset, args.iterations,
                                        verbose=args.verbose,
                                        runtime=runtime("gan"))
                final = (history.l2_to_reference[-1]
                         if history.l2_to_reference else float("nan"))
                print(f"gan: {history.iterations} iterations recorded, "
                      f"final l2 {final:.1f} "
                      f"({history.runtime_seconds:.2f}s)")
                if run is not None:
                    run.manifest.summary["gan"] = {
                        "iterations": history.iterations,
                        "final_l2": final,
                        "runtime_seconds": history.runtime_seconds}
        if run is not None and args.checkpoint_dir:
            run.add_artifact("checkpoints", args.checkpoint_dir)
        if args.out:
            nn.save_state(generator, args.out)
            print(f"generator weights written to {args.out}")
            if run is not None:
                run.add_artifact("weights", args.out)
    return 0


def cmd_flow(args) -> int:
    from . import nn
    from .bench import write_pgm
    from .core import GanOpcConfig, GanOpcFlow, MaskGenerator
    from .ilt import ILTConfig
    from .litho import LithoEngine
    from .metrics import evaluate_mask

    if args.tiled:
        from .litho import LithoConfig
        from .tiling import tiled_flow
        tiling = _tiled_config(args)
        litho = LithoConfig.small(tiling.tile)
        _, target = _chip_target(args.clip, tiling, litho)
        config = GanOpcConfig.small(litho.grid)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        nn.load_state(generator, args.checkpoint)
        with _run_record(args, "flow", litho=litho,
                         params={"clip": args.clip,
                                 "checkpoint": args.checkpoint,
                                 "tiled": True,
                                 "iterations": args.iterations,
                                 "tile_size": args.tile_size,
                                 "halo": args.halo}) as run:
            with _trace_to(run, args.trace_dir, "flow"):
                result = tiled_flow(
                    generator, target, tiling, litho,
                    ILTConfig(max_iterations=args.iterations, patience=4),
                    workers=args.workers, precision=args.precision,
                    progress=_tile_progress(args.workers))
            _record_tiled(run, result, "tiled-GAN-OPC")
        _print_tiled(result, args.out)
        return 0

    litho = _litho(args)
    engine = _engine(litho, args.precision)
    conditions = _conditions(args, litho)
    layout, target = _load_target(args.clip, litho.grid)
    config = GanOpcConfig.small(litho.grid)
    generator = MaskGenerator(config.generator_channels,
                              rng=np.random.default_rng(0))
    nn.load_state(generator, args.checkpoint)
    clip_name = layout.name or "clip"
    with _run_record(args, "flow", litho=litho, conditions=conditions,
                     params={"clip": args.clip,
                             "checkpoint": args.checkpoint,
                             "iterations": args.iterations}) as run:
        flow = GanOpcFlow(generator, litho,
                          ILTConfig(max_iterations=args.iterations,
                                    patience=4,
                                    pw_objective=args.pw_objective),
                          engine=engine,
                          logger=run.logger if run is not None else None,
                          conditions=conditions)
        if run is not None:
            flow.refiner.logger = run.logger
            flow.refiner.quality_context = {"clip": clip_name,
                                            "method": "GAN-OPC",
                                            "stage": "refinement"}
        condition_engine = None
        if conditions is not None:
            condition_engine = LithoEngine.for_conditions(engine.kernels,
                                                          conditions,
                                                          engine.precision)
        stats_before = LithoEngine.stats.snapshot()
        with _trace_to(run, args.trace_dir, "flow"):
            result = flow.optimize(target)
        evaluation = evaluate_mask(engine, result.mask, target,
                                   layout=layout, name=clip_name,
                                   runtime_seconds=result.runtime_seconds,
                                   condition_engine=condition_engine)
        write_pgm(result.mask, args.out)
        if run is not None:
            from .runs import clip_metrics
            run.logger.clip_result(
                clip_name, "GAN-OPC", clip_metrics(evaluation),
                runtime_seconds=result.runtime_seconds,
                stage_seconds={
                    "generation": result.generation_seconds,
                    "refinement": result.refinement_seconds},
                epe_hotspots=evaluation.epe_hotspots)
            run.manifest.summary["litho"] = LithoEngine.stats.delta(
                stats_before)
            run.add_artifact("mask", args.out)
            run.import_file("clip", args.clip)
    print(f"generation: {result.generation_seconds:.3f}s, "
          f"refinement: {result.refinement_seconds:.3f}s "
          f"({result.ilt_result.iterations} steps)")
    for key, value in evaluation.as_dict().items():
        print(f"{key}: {value}")
    print(f"mask written to {args.out}")
    return 0


def cmd_profile(args) -> int:
    """Profile a small end-to-end GAN-OPC flow run.

    Enables the span tracer and the per-op autograd profiler, runs
    generator inference + ILT refinement on one clip, then prints the
    span/op/module tables and writes the Chrome trace (Perfetto) to
    ``<trace-dir>/trace.json``; ``profile`` is never recorded in the
    run ledger.  With ``--workers > 1`` it also checks that the litho
    counters of the parent and every worker equal the merged litho span
    counts, and returns 1 if not.
    """
    import os
    import time

    from . import nn
    from .core import GanOpcConfig, GanOpcFlow, MaskGenerator
    from .ilt import ILTConfig
    from .obs import profiler, trace

    tracer = trace.enable()
    prof = profiler.enable()
    wall_started = time.perf_counter()
    try:
        with trace.span("profile.setup"):
            litho = _litho(args)
            engine = _engine(litho, args.precision)
            engine_before = engine.stats.snapshot()
            if args.clip:
                _, target = _load_target(args.clip, litho.grid)
            else:
                from .geometry import binarize, rasterize
                from .layoutgen import LayoutSynthesizer, TopologyConfig
                topo = TopologyConfig(
                    extent=litho.extent_nm,
                    margin=min(120.0, litho.extent_nm / 8.0))
                clip = LayoutSynthesizer(topo).generate_batch(
                    1, seed=args.seed)[0]
                target = binarize(rasterize(clip, litho.grid))
            config = GanOpcConfig.small(litho.grid)
            generator = MaskGenerator(config.generator_channels,
                                      rng=np.random.default_rng(args.seed))
            if args.checkpoint:
                nn.load_state(generator, args.checkpoint)
            flow = GanOpcFlow(
                generator, litho,
                ILTConfig(max_iterations=args.iterations, patience=4),
                engine=engine)
        with trace.span("profile.flow"):
            result = flow.optimize(target)
        pool_stats = None
        if args.workers > 1:
            # Fan a small per-clip ILT batch across the pool so the
            # profile shows per-worker utilization alongside the
            # single-process tables.
            from .parallel import parallel_ilt
            with trace.span("profile.parallel", workers=args.workers):
                batch = np.stack([target] * (2 * args.workers))
                parallel_result = parallel_ilt(
                    batch, litho,
                    ILTConfig(max_iterations=args.iterations, patience=4),
                    workers=args.workers, precision=args.precision)
                pool_stats = parallel_result.pool_stats
        parent_engine_delta = engine.stats.delta(engine_before)
    finally:
        wall = time.perf_counter() - wall_started
        profiler.disable()
        trace.disable()
    chrome_path = tracer.write_chrome_trace(
        os.path.join(args.trace_dir, "trace.json"))

    coverage = tracer.coverage(wall)
    print(trace.format_span_table(tracer.summary(), wall))
    print()
    print(prof.table())
    if prof.module_stats():
        print()
        print(prof.module_table())
    print()
    print(f"flow: generation {result.generation_seconds:.3f}s, "
          f"refinement {result.refinement_seconds:.3f}s "
          f"({result.ilt_result.iterations} steps), l2 {result.l2:.1f}")
    print(f"wall {wall:.3f}s; top-level spans cover "
          f"{100.0 * coverage:.1f}% of wall")
    mismatched = False
    if pool_stats is not None:
        print()
        print(pool_stats.format_table())
        # Fleet view: parent + worker engine counters must reconcile
        # 1:1 with the merged litho span counts (DESIGN.md §13).
        from .obs.aggregate import format_engine_table, reconcile
        combined = dict(pool_stats.fleet.engine_totals)
        for key, value in parent_engine_delta.items():
            combined[key] = combined.get(key, 0.0) + value
        merged = pool_stats.fleet.merged_summary(tracer.summary())
        print()
        print(format_engine_table(combined,
                                  title="litho engine (parent + workers)"))
        print("engine/span reconciliation:")
        for counter, entry in reconcile(combined, merged).items():
            status = "ok" if entry["match"] else "MISMATCH"
            mismatched = mismatched or not entry["match"]
            print(f"  {counter:>15}: stats {entry['stats']:>6d}  "
                  f"spans {entry['spans']:>6d}  [{status}]")
    print(f"chrome trace written to {chrome_path} "
          f"(load in https://ui.perfetto.dev)")
    return 1 if mismatched else 0


def cmd_table2(args) -> int:
    from .bench import ExperimentConfig, Pipeline, run_table2, train_generators
    from .bench.iccad13 import iccad13_suite

    config = {"quick": ExperimentConfig.quick,
              "medium": ExperimentConfig.medium,
              "full": ExperimentConfig}[args.scale]()
    pipeline = Pipeline.build(config, precision=args.precision)
    conditions = _conditions(args, pipeline.litho)
    clips = None
    if args.clips:
        wanted = [name.strip() for name in args.clips.split(",")
                  if name.strip()]
        suite = {clip.name: clip for clip in iccad13_suite(pipeline.litho)}
        unknown = [name for name in wanted if name not in suite]
        if unknown:
            print(f"error: unknown clip(s) {', '.join(unknown)} "
                  f"(suite: {', '.join(suite)})", file=sys.stderr)
            return 2
        clips = [suite[name] for name in wanted]
    with _run_record(args, "table2", litho=pipeline.litho,
                     conditions=conditions, seed=config.seed,
                     params={"scale": args.scale,
                             "clips": args.clips or "all",
                             "pw_objective": args.pw_objective}) as run:
        print(f"training generators at scale {args.scale!r} "
              f"(grid {config.grid}px) ...")
        pipeline.dataset.precompute(workers=args.workers)
        generators = train_generators(pipeline, verbose=args.verbose)
        result = run_table2(pipeline, generators, clips=clips,
                            workers=args.workers,
                            conditions=conditions,
                            pw_objective=args.pw_objective,
                            logger=run.logger if run is not None else None)
        if run is not None:
            run.save_table2(result)
            run.manifest.summary["litho"] = dict(result.engine_stats)
            for method in result.columns:
                l2, pvb, rt = result.averages(method)
                run.manifest.summary[method] = {
                    "l2_nm2": l2, "pvband_nm2": pvb,
                    "runtime_seconds": rt}
        if args.quality_out:
            from .runs import (quality_record_from_table2,
                               write_quality_record)
            from .runs.store import git_revision
            from .litho.kernels import config_hash as litho_hash
            suite_name = (f"table2-{args.scale}"
                          + (f"-{args.clips}" if args.clips else ""))
            record = quality_record_from_table2(
                result, suite_name, git_rev=git_revision(),
                config_hash=litho_hash(pipeline.litho))
            write_quality_record(record, args.quality_out)
            print(f"quality record written to {args.quality_out}")
            if run is not None:
                run.add_artifact("quality_record", args.quality_out)
    print(result.table)
    print("per-stage runtime (mean seconds per clip):")
    for method in ("ILT", "GAN-OPC", "PGAN-OPC"):
        stages = result.stage_averages(method)
        print(f"  {method:>9}: generation {stages['generation']:8.3f}s   "
              f"refinement {stages['refinement']:8.3f}s")
    if result.pool_stats is not None:
        # The pool table already appends the fleet-summed engine table.
        print(result.pool_stats.format_table())
    elif result.engine_stats:
        print(result.engine_table())
    if result.has_window_metrics:
        print(f"process window ({conditions.describe()}, "
              f"objective {args.pw_objective!r}):")
        print(result.window_table())
    return 0


def cmd_runs(args) -> int:
    from .runs import (RunStore, RunStoreError, diff_runs, format_run_diff,
                       run_quality)

    store = RunStore(args.runs_dir)
    try:
        if args.runs_command == "list":
            manifests = store.runs()
            if not manifests:
                print(f"no runs in {store.root!r}")
                return 0
            print(f"{'run id':<34} {'command':<8} {'status':<9} "
                  f"{'git':<8} {'started':<20}")
            for m in manifests:
                print(f"{m.run_id:<34} {m.command:<8} {m.status:<9} "
                      f"{m.git_rev:<8} {m.started:<20}")
            return 0

        if args.runs_command == "show":
            run = store.resolve(args.run)
            m = run.manifest
            for key, value in sorted(m.config_fields().items()):
                print(f"{key}: {value}")
            print(f"status: {m.status} ({m.started} -> "
                  f"{m.finished or '...'})")
            print(f"argv: {' '.join(m.argv)}")
            for name, path in sorted(m.artifacts.items()):
                print(f"artifact {name}: {path}")
            quality = run_quality(run.dir)
            for method, metrics in sorted(quality.aggregates().items()):
                values = "  ".join(f"{key}={value:,.1f}"
                                   for key, value in sorted(metrics.items()))
                print(f"quality {method}: {values}")
            for series, points in sorted(quality.samples.items()):
                print(f"samples {series}: {len(points)} points "
                      f"(last objective "
                      f"{points[-1][1] if points else float('nan'):.4g})")
            if quality.anomalies:
                print(f"anomalies: {len(quality.anomalies)}")
                for record in quality.anomalies[:10]:
                    print(f"  {record.get('kind')}: "
                          f"iteration={record.get('iteration')} "
                          f"action={record.get('action')}")
            return 0

        # diff
        run_a = store.resolve(args.run_a)
        run_b = store.resolve(args.run_b)
        diff = diff_runs(run_a.manifest, run_quality(run_a.dir),
                         run_b.manifest, run_quality(run_b.dir))
        metrics = ([m.strip() for m in args.metrics.split(",")]
                   if args.metrics else None)
        print(format_run_diff(diff, metrics=metrics,
                              show_clips=not args.no_clips))
        return 0
    except RunStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_report(args) -> int:
    from .runs import RunStore, RunStoreError, write_report

    store = RunStore(args.runs_dir)
    try:
        run = store.resolve(args.run)
        baseline = (store.resolve(args.baseline)
                    if args.baseline else None)
        path = write_report(run, args.out, baseline=baseline)
    except RunStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"report written to {path} (run {run.manifest.run_id})")
    return 0


# ----------------------------------------------------------------------
def _add_precision(p) -> None:
    p.add_argument("--precision", choices=("f32", "f64"), default=None,
                   help="precision of litho scoring, metrics and "
                        "training (default: f64); ILT descent always "
                        "runs in f32")


def _add_workers(p) -> None:
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for parallelizable stages "
                        "(default: 1, serial)")


def _add_tiling(p) -> None:
    p.add_argument("--tiled", action="store_true",
                   help="decompose the layout into halo-overlap tiles "
                        "and stitch per-tile results (chip-scale runs)")
    p.add_argument("--tile-size", type=int, default=64,
                   help="tile window size in px, the litho engine grid "
                        "(default: 64)")
    p.add_argument("--halo", type=int, default=8,
                   help="overlap ring in px around each tile core "
                        "(default: 8)")


def _add_corners(p, default_objective: str = "nominal") -> None:
    choices = ("nominal", "weighted", "worst")
    if default_objective != "nominal":
        choices = ("weighted", "worst")
    p.add_argument("--corners", default=None,
                   help="process-window corner stack: a preset "
                        "(nominal/dose/window) or an explicit "
                        "'defocus:dose[:weight],...' list")
    p.add_argument("--pw-objective", choices=choices,
                   default=default_objective,
                   help="corner aggregation the optimizers descend "
                        f"(default: {default_objective})")


def _add_runs_dir(p, record: bool = True) -> None:
    p.add_argument("--runs-dir", default=None,
                   help="run-ledger directory (default: REPRO_RUNS_DIR "
                        "env or .repro_runs)")
    if record:
        p.add_argument("--no-run-record", action="store_true",
                       help="do not record this invocation in the "
                            "run ledger")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GAN-OPC reproduction: mask optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="generate random legal clips")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--prefix", default="clip-")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser(
        "chip", help="synthesize a chip-scale layout for the tiled flow")
    p.add_argument("--cells", type=int, default=4,
                   help="cells per side (default: 4)")
    p.add_argument("--cell-extent", type=float, default=512.0,
                   help="cell side in nm (default: 512)")
    p.add_argument("--fill", type=float, default=0.9,
                   help="probability a cell receives geometry "
                        "(default: 0.9)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="chip.glp")
    p.set_defaults(func=cmd_chip)

    p = sub.add_parser("simulate", help="simulate a mask against a clip")
    p.add_argument("clip", help="target layout (.glp)")
    p.add_argument("--mask", help="mask image (.pgm); default: the target")
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--out", help="write the wafer image here (.pgm)")
    _add_precision(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ilt", help="ILT mask optimization for a clip")
    p.add_argument("clip", help="target layout (.glp)")
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--iterations", type=int, default=150)
    p.add_argument("--out", default="mask.pgm")
    _add_precision(p)
    _add_workers(p)
    _add_tiling(p)
    _add_runs_dir(p)
    p.set_defaults(func=cmd_ilt)

    p = sub.add_parser("sraf", help="insert assist features into a clip")
    p.add_argument("clip", help="target layout (.glp)")
    p.add_argument("--width", type=float, default=24.0)
    p.add_argument("--offset", type=float, default=80.0)
    p.add_argument("--out", default="assisted.glp")
    p.set_defaults(func=cmd_sraf)

    p = sub.add_parser(
        "train", help="train the GAN-OPC networks with the robustness "
                      "substrate (checkpoint/resume, guards, telemetry)")
    p.add_argument("--phase", choices=("pretrain", "gan", "both"),
                   default="pretrain")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--dataset-size", type=int, default=16)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", help="generator .npz checkpoint to start from")
    p.add_argument("--out", help="write final generator weights here (.npz)")
    p.add_argument("--checkpoint-dir",
                   help="training checkpoint directory (per-phase subdirs)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="checkpoint every N iterations (0: only at the end)")
    p.add_argument("--keep-last", type=int, default=3,
                   help="checkpoints retained on disk")
    p.add_argument("--resume", action="store_true",
                   help="continue from the latest checkpoint, bit-exactly")
    p.add_argument("--policy", choices=("raise", "rollback", "skip"),
                   default="raise",
                   help="divergence policy on non-finite losses/gradients")
    p.add_argument("--max-grad-norm", type=float, default=None,
                   help="clip the global gradient norm of each update")
    p.add_argument("--lr-backoff", type=float, default=0.5,
                   help="learning-rate multiplier applied on rollback")
    p.add_argument("--trace-dir",
                   help="write the Chrome trace under this directory; "
                        "a recorded run also gets the spans as records")
    p.add_argument("--litho-weight", type=float, default=0.0,
                   help="weight of the litho-guidance term in GAN "
                        "generator updates (0 disables it)")
    p.add_argument("--verbose", action="store_true")
    _add_precision(p)
    _add_workers(p)
    _add_corners(p, default_objective="weighted")
    _add_runs_dir(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("flow", help="GAN-OPC flow with a trained generator")
    p.add_argument("clip", help="target layout (.glp)")
    p.add_argument("checkpoint", help="generator .npz checkpoint")
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--trace-dir",
                   help="write the Chrome trace under this directory; "
                        "a recorded run also gets the spans as records")
    p.add_argument("--out", default="mask.pgm")
    _add_precision(p)
    _add_workers(p)
    _add_tiling(p)
    _add_corners(p)
    _add_runs_dir(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser(
        "profile", help="profile a small end-to-end flow: span tracer, "
                        "per-op autograd profiler, Chrome trace export")
    p.add_argument("--clip", help="target layout (.glp); default: "
                                  "synthesize one")
    p.add_argument("--checkpoint",
                   help="generator .npz checkpoint; default: random init")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--iterations", type=int, default=20,
                   help="ILT refinement iteration cap")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-dir", default="profile-trace",
                   help="output directory for trace.json")
    _add_precision(p)
    _add_workers(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("table2", help="run the Table 2 experiment")
    p.add_argument("--scale", choices=("quick", "medium", "full"),
                   default="medium")
    p.add_argument("--clips", default=None,
                   help="comma list of suite clip names to run "
                        "(default: the whole suite); the CI quality "
                        "gate uses a small deterministic subset")
    p.add_argument("--quality-out", default=None,
                   help="write the flat QUALITY_*.json gate record "
                        "here (input to "
                        "benchmarks/check_quality_regression.py)")
    p.add_argument("--verbose", action="store_true")
    _add_precision(p)
    _add_workers(p)
    _add_corners(p)
    _add_runs_dir(p)
    p.set_defaults(func=cmd_table2)

    p = sub.add_parser(
        "runs", help="inspect the run ledger: list runs, show one, "
                     "diff two (config + per-clip quality deltas)")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    q = runs_sub.add_parser("list", help="list recorded runs")
    _add_runs_dir(q, record=False)
    q = runs_sub.add_parser("show", help="show one run's manifest and "
                                         "quality summary")
    q.add_argument("run", help="run id, unique prefix/substring, or "
                               "'latest'")
    _add_runs_dir(q, record=False)
    q = runs_sub.add_parser(
        "diff", help="config + quality + engine-counter deltas B vs A")
    q.add_argument("run_a", help="baseline run (A)")
    q.add_argument("run_b", help="candidate run (B)")
    q.add_argument("--metrics", default=None,
                   help="comma list restricting the aggregate metric "
                        "rows (default: all)")
    q.add_argument("--no-clips", action="store_true",
                   help="skip the per-clip delta section")
    _add_runs_dir(q, record=False)
    p.set_defaults(func=cmd_runs)

    p = sub.add_parser(
        "report", help="render a run to a self-contained static HTML "
                       "report (convergence, per-clip quality, EPE "
                       "hotspots, spans, anomalies)")
    p.add_argument("run", help="run id, unique prefix/substring, or "
                               "'latest'")
    p.add_argument("--baseline", default=None,
                   help="second run to compare against (bars + deltas)")
    p.add_argument("--out", default="report.html",
                   help="output HTML path (default: report.html)")
    _add_runs_dir(p, record=False)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
