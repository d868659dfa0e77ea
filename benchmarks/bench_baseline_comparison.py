"""Baseline context: model-based OPC vs ILT vs no-OPC.

The paper's introduction motivates GAN-OPC with the limits of the
conventional flow: model-based OPC is "highly restricted by [its]
solution space", ILT gets better contours at much higher runtime.  This
benchmark quantifies that backdrop on the substitute suite: printing
the raw target, MB-OPC-corrected masks, and ILT masks.

Expected shape: no-OPC >> MB-OPC > ILT on L2, with MB-OPC much faster
than ILT.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import iccad13_suite
from repro.geometry import binarize, rasterize
from repro.ilt import ILTConfig, ILTOptimizer
from repro.litho import LithoConfig, LithoEngine, build_kernels
from repro.metrics import squared_l2
from repro.opc import MbOpcConfig, ModelBasedOPC

GRID = 64


def test_conventional_flow_baselines(benchmark):
    litho = LithoConfig.small(GRID)
    kernels = build_kernels(litho)
    engine = LithoEngine.for_kernels(kernels)
    clips = iccad13_suite(litho)[:5]

    mbopc = ModelBasedOPC(litho, MbOpcConfig(iterations=8), kernels=kernels)
    ilt = ILTOptimizer(litho, ILTConfig(max_iterations=150), kernels=kernels)

    def run():
        rows = []
        for clip in clips:
            target = binarize(rasterize(clip.layout, GRID))
            no_opc = squared_l2(engine.wafer(target), target)

            start = time.perf_counter()
            mb_result = mbopc.optimize(clip.layout)
            mb_time = time.perf_counter() - start

            start = time.perf_counter()
            ilt_result = ilt.optimize(target)
            ilt_time = time.perf_counter() - start

            rows.append((clip.name, no_opc, mb_result.l2, mb_time,
                         ilt_result.l2, ilt_time))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n=== Conventional-flow baselines (intro motivation) ===")
    print(f"{'clip':12s} {'no-OPC L2':>10s} {'MB-OPC L2':>10s} "
          f"{'MB RT':>7s} {'ILT L2':>8s} {'ILT RT':>7s}")
    for name, no_opc, mb_l2, mb_time, ilt_l2, ilt_time in rows:
        print(f"{name:12s} {no_opc:10.0f} {mb_l2:10.0f} {mb_time:7.2f} "
              f"{ilt_l2:8.0f} {ilt_time:7.2f}")

    no_opc_avg = np.mean([r[1] for r in rows])
    mb_avg = np.mean([r[2] for r in rows])
    ilt_avg = np.mean([r[4] for r in rows])
    benchmark.extra_info["no_opc_l2"] = round(float(no_opc_avg), 1)
    benchmark.extra_info["mbopc_l2"] = round(float(mb_avg), 1)
    benchmark.extra_info["ilt_l2"] = round(float(ilt_avg), 1)

    assert mb_avg < no_opc_avg, "MB-OPC must improve on no correction"
    assert ilt_avg <= mb_avg, "ILT must reach at least MB-OPC quality"
