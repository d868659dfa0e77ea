"""End-to-end benchmark of the GAN-OPC reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 32 --trace 0
    python3 perfbench/selftest.py        # the benchmark's own tests

Workloads (``workloads.py`` says what each reported field means on each):

* ``table2`` -- the paper's Table 2 at 128 px: ILT (150 iterations),
  GAN-OPC and PGAN-OPC (generate, then refine up to 100 iterations with
  patience 4) on three suite clips, every mask evaluated with the
  ``window`` corner set, quality records streamed to a RunLogger.
* ``train`` -- Algorithm 2 pretrain steps, then Algorithm 1 GAN
  iterations, at 128 px with batch 4.
* ``chip`` -- ``tiled_flow`` over a 9-tile chip (tile 128, halo 16,
  blend 8) on a warm 2-worker pool.

The seed picks the training set and network initialisation of
``train`` and ``chip``, the chip layout, and the order of the Table 2
clips (whose clips and generators are fixed; see ``workloads.py``).
Set-up (kernels, dataset reference masks, seeded generator training,
pool start-up) runs three times and ``setup_s`` is the median.  The
timed region then repeats whole passes while another fits in
``--seconds``.  ``pass_s`` is the fastest pass; ``item_a_s`` and
``item_b_s`` take, for each item of a pass (a clip, a step, a tile),
its fastest repeat in the run, and average those over the items.  A
shared host only ever adds time, in phases of seconds to minutes, so
over ten runs these spread less than medians do; the medians are
printed beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
plain and traced passes and prints the per-layer metrics, which the
benchmark measures by wrapping the program's layer entry points from
outside (``layers.py``).  Either way the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Thread budget: one BLAS/OpenMP thread per process, set before numpy
loads, and two pool workers, so processes x threads never exceeds the
two cores the benchmark is sized for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ[_name] = "1"
# Program defaults only: no user override of precision, backend or
# tuning, and no kernel cache outside the checkout.
for _name in ("REPRO_PRECISION", "REPRO_BACKEND", "REPRO_AUTOTUNE",
              "REPRO_WORKSPACE", "REPRO_POOL_HEALTH"):
    os.environ.pop(_name, None)
os.environ["REPRO_KERNEL_CACHE"] = "off"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPEATS = 3

#: What each end-to-end field is called on each workload.
ALIASES = {
    "table2": {"pass_s": "table2_s", "item_a_s": "ilt_clip_s",
               "item_b_s": "pganopc_clip_s"},
    "train": {"pass_s": "train_block_s", "item_a_s": "pretrain_step_s",
              "item_b_s": "gan_iter_s"},
    "chip": {"pass_s": "chip_s", "item_a_s": "tile_s",
             "item_b_s": "busiest_worker_s"},
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="problem size; 'tiny' is the 32 px self-test "
                             "scale")
    return parser.parse_args(argv)


def _median(values):
    return statistics.median(values) if values else 0.0


def _describe(values) -> str:
    """Median, a high percentile and the sample count."""
    if not values:
        return "n=0"
    text = f"median {_median(values):.4f}"
    if len(values) >= 10:
        text += f"  p90 {statistics.quantiles(values, n=10)[-1]:.4f}"
    return text + f"  max {max(values):.4f}  n={len(values)}"


def _best_per_item(columns) -> float:
    """Mean over item positions of each position's fastest repeat;
    ``columns`` holds one list of item timings per pass."""
    fastest = [min(times) for times in zip(*columns)]
    return statistics.fmean(fastest) if fastest else 0.0


def _timed_passes(seconds, run_one):
    """Repeat ``run_one`` while another call still fits in ``seconds``
    (always at least once); stop at the first failed pass."""
    results = []
    started = time.perf_counter()
    while True:
        results.append(run_one())
        if results[-1].error is not None:
            break
        elapsed = time.perf_counter() - started
        if elapsed * (len(results) + 1) / len(results) > seconds:
            break
    return results


def _end_to_end(name, setup_times, passes):
    ok = [p for p in passes if p.error is None]
    walls = [p.wall for p in ok]
    item_a = [v for p in ok for v in p.item_a]
    item_b = [v for p in ok for v in p.item_b]
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "pass_s": (min(walls, default=0.0), "s"),
        "item_a_s": (_best_per_item([p.item_a for p in ok]), "s"),
        "item_b_s": (_best_per_item([p.item_b for p in ok]), "s"),
        "l2_rel": (ok[0].l2_rel if ok else 0.0, "ratio"),
    }
    aliases = ALIASES[name]
    print(f"passes: {len(ok)} of {len(passes)}")
    print(f"setup runs (s): {', '.join(f'{t:.3f}' for t in setup_times)}")
    for field, values in (("pass_s", walls), ("item_a_s", item_a),
                          ("item_b_s", item_b)):
        print(f"{field:<9} = {aliases[field]:<20} {_describe(values)}")
        print(f"{'':<11} {'reported':<20} {metrics[field][0]:.4f} "
              f"(fastest repeat{'' if field == 'pass_s' else ' per item'})")
    if ok:
        for key in sorted(ok[0].extra):
            print(f"{'':<11} {key + '_clip_s':<20} "
                  f"{_describe([v for p in ok for v in p.extra[key]])}")
        print(f"{'l2_rel':<9} = {'':<20} {ok[0].l2_rel!r}")
        for key, value in sorted(ok[0].quality.items()):
            print(f"{'':<11} {key:<20} {value!r}")
    return metrics


def _per_layer(totals, traced, plain, sampler):
    """Per-pass layer metrics from the tracer totals of the traced passes;
    ``traced`` and ``plain`` are the passes' timed-region walls."""
    n = max(len(traced), 1)

    def per_pass(key):
        return totals.get(key, 0.0) / n

    map_s = per_pass("pool.s")
    busy_s = per_pass("pool.busy_s")
    workers = (totals.get("pool.workers", 0.0)
               / max(totals.get("pool.calls", 0.0), 1.0))
    traced_wall = sum(traced) / n
    unattributed = (1.0 - per_pass("covered_s") / traced_wall
                    if traced_wall else 0.0)
    metrics = {
        "litho.gradient_s": (per_pass("litho.gradient.s")
                             + per_pass("pool.fleet.gradient_seconds"), "s"),
        "litho.gradient_masks": (per_pass("litho.gradient.masks")
                                 + per_pass("pool.fleet.gradient_masks"),
                                 "count"),
        "litho.forward_s": (per_pass("litho.forward.s")
                            + per_pass("pool.fleet.forward_seconds"), "s"),
        "litho.forward_masks": (per_pass("litho.forward.masks")
                                + per_pass("pool.fleet.forward_masks"),
                                "count"),
        "ilt.iterations": (per_pass("ilt.iterations"), "count"),
        "ilt.self_s": (per_pass("ilt.self_s"), "s"),
        "nn.forward_s": (per_pass("nn.forward.s"), "s"),
        "nn.conv_fwd_s": (per_pass("nn.conv.s"), "s"),
        "nn.conv_fwd_calls": (per_pass("nn.conv.calls"), "count"),
        "nn.backward_s": (per_pass("nn.backward.s"), "s"),
        "nn.generate_s": (per_pass("nn.generate.s"), "s"),
        "optim.step_s": (per_pass("optim.s"), "s"),
        "optim.steps": (per_pass("optim.calls"), "count"),
        "metrics.evaluate_s": (per_pass("metrics.s"), "s"),
        "telemetry.events": (per_pass("telemetry.calls"), "count"),
        "telemetry.write_s": (per_pass("telemetry.s"), "s"),
        "telemetry.bytes": (per_pass("telemetry.bytes"), "bytes"),
        "pool.map_s": (map_s, "s"),
        "pool.tasks": (per_pass("pool.tasks"), "count"),
        "pool.busy_s": (busy_s, "s"),
        "pool.utilization": (busy_s / (map_s * workers) if map_s else 0.0,
                             "ratio"),
        "pool.transport_s": (map_s - busy_s / workers if map_s else 0.0,
                             "s"),
        "tiling.stitch_s": (per_pass("tiling.stitch.s"), "s"),
        "unattributed_share": (unattributed, "ratio"),
        "trace_overhead_share": (_median(traced) / _median(plain) - 1.0
                                 if traced and plain else 0.0, "ratio"),
    }
    print(f"traced passes: {len(traced)}, plain passes: {len(plain)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<22} {value:14.6f} {unit}")
    largest = sampler.largest()
    if unattributed > 0.05 and largest is not None:
        print(f"largest uncovered call: {largest[0]} "
              f"({100.0 * largest[1]:.0f}% of uncovered samples)")
    return metrics


def _exit_on_sigterm(signum, frame):
    """SIGTERM unwinds like an error, so the ``finally`` below still
    stops the pool workers and the resource tracker."""
    sys.exit(128 + signum)


def run(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import workloads

    scale = workloads.SCALES[args.scale]
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, f".work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale} "
          f"({scale.grid} px), {args.seconds:g} s, trace {args.trace}")
    print(f"thread budget: {' '.join(f'{v}=1' for v in THREAD_VARS)}; "
          f"chip pool {workloads.CHIP_WORKERS} workers; "
          f"nproc {os.cpu_count()}")

    state = None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
            started = time.perf_counter()
            state = workload.setup(scale, args.seed, workdir)
            setup_times.append(time.perf_counter() - started)

        if args.trace == 0:
            passes = plain = _timed_passes(
                args.seconds, lambda: workload.run_pass(state))
            metrics = _end_to_end(args.workload, setup_times, passes)
            checks = {}
        else:
            tracer = layers.LayerTracer()
            sampler = layers.UncoveredSampler(tracer, SRC)
            plain, traced = [], []

            def pair():
                plain.append(workload.run_pass(state))
                with tracer, sampler:
                    traced.append(workload.run_pass(state))
                return plain[-1] if plain[-1].error else traced[-1]

            _timed_passes(args.seconds, pair)
            passes = plain + traced
            metrics = _per_layer(tracer.snapshot(),
                                 [p.wall for p in traced],
                                 [p.wall for p in plain], sampler)
            checks = {"traced_matches_untraced": workloads.identical(passes)}
        if all(p.error is None for p in passes):
            checks.update(workload.checks(state, plain))
        for name, ok in checks.items():
            print(f"check {name}: {'ok' if ok else 'FAILED'}")
        for p in passes:
            if p.error:
                print(f"pass failed: {p.error}", file=sys.stderr)
    finally:
        if state is not None:
            workload.close(state)
        workloads.join_children()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = (sum(p.failed for p in passes)
              + sum(not ok for ok in checks.values()))
    report = {"correct": failed == 0,
              "attempted": sum(p.attempted for p in passes) + len(checks),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(run())
