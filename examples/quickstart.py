"""Quickstart: optimize one clip end to end with every engine.

Walks the whole stack in about a minute on a laptop CPU:

1. synthesize a design-rule-clean M1 clip (Table 1 rules),
2. simulate how it would print with *no* correction,
3. correct it with model-based OPC (the conventional flow of Fig. 1),
4. correct it with ILT (the paper's baseline [7]),
5. run the GAN-OPC flow: pre-train a small generator with lithography
   guidance (Algorithm 2), then generate + refine (Fig. 6),
6. score everything (squared L2, PV band) and save wafer images.

Run:  python examples/quickstart.py
"""

import os

import numpy as np

from repro.bench import write_pgm
from repro.core import (GanOpcConfig, GanOpcFlow, ILTGuidedPretrainer,
                        MaskGenerator)
from repro.geometry import binarize, rasterize
from repro.ilt import ILTConfig, ILTOptimizer
from repro.layoutgen import LayoutSynthesizer, SyntheticDataset, TopologyConfig
from repro.litho import LithoConfig, LithoEngine, build_kernels
from repro.metrics import evaluate_mask
from repro.opc import MbOpcConfig, ModelBasedOPC

GRID = 64
OUT = os.path.join(os.path.dirname(__file__), "output", "quickstart")


def main(grid: int = GRID, mb_iterations: int = 8, ilt_iterations: int = 150,
         pretrain_iterations: int = 100, refine_iterations: int = 120,
         dataset_size: int = 12, out_dir: str = OUT) -> dict:
    litho = LithoConfig.small(grid)
    kernels = build_kernels(litho)
    engine = LithoEngine.for_kernels(kernels)

    # 1. A clip to optimize.
    synthesizer = LayoutSynthesizer(
        TopologyConfig(extent=litho.extent_nm,
                       margin=min(60.0, litho.extent_nm / 8.0)))
    clip = synthesizer.generate(np.random.default_rng(5), name="quickstart")
    target = binarize(rasterize(clip, grid))
    print(f"clip: {len(clip)} shapes, {clip.pattern_area:.0f} nm^2 pattern")

    results = {}

    # 2. No correction: print the target as drawn.
    results["no-OPC"] = evaluate_mask(engine, target, target,
                                      layout=clip, name="no-OPC")

    # 3. Model-based OPC.
    mb = ModelBasedOPC(litho, MbOpcConfig(iterations=mb_iterations),
                       kernels=kernels)
    mb_result = mb.optimize(clip)
    results["MB-OPC"] = evaluate_mask(
        engine, mb_result.mask, target, layout=clip, name="MB-OPC",
        runtime_seconds=mb_result.runtime_seconds)

    # 4. ILT from scratch.
    ilt = ILTOptimizer(litho, ILTConfig(max_iterations=ilt_iterations),
                       kernels=kernels)
    ilt_result = ilt.optimize(target)
    results["ILT"] = evaluate_mask(
        engine, ilt_result.mask, target, layout=clip, name="ILT",
        runtime_seconds=ilt_result.runtime_seconds)

    # 5. GAN-OPC: lithography-guided pre-training on a small synthetic
    #    library, then generate + refine.  (A real deployment trains
    #    Algorithm 1 on top — see train_gan_opc.py.)
    config = GanOpcConfig.small(grid)
    generator = MaskGenerator(config.generator_channels,
                              rng=np.random.default_rng(0))
    dataset = SyntheticDataset(litho, size=dataset_size, seed=1,
                               kernels=kernels)
    print("pre-training the generator with lithography guidance ...")
    ILTGuidedPretrainer(generator, litho, config, kernels=kernels).train(
        dataset, iterations=pretrain_iterations,
        rng=np.random.default_rng(2))
    flow = GanOpcFlow(generator, litho,
                      ILTConfig(max_iterations=refine_iterations, patience=8),
                      kernels=kernels)
    flow_result = flow.optimize(target)
    results["GAN-OPC"] = evaluate_mask(
        engine, flow_result.mask, target, layout=clip, name="GAN-OPC",
        runtime_seconds=flow_result.runtime_seconds)

    # 6. Report.
    print(f"\n{'method':10s} {'L2 (nm^2)':>10s} {'PVB (nm^2)':>11s} "
          f"{'EPE viol':>9s} {'RT (s)':>7s}")
    for name, ev in results.items():
        rt = f"{ev.runtime_seconds:7.2f}" if ev.runtime_seconds else "      -"
        print(f"{name:10s} {ev.l2_nm2:10.0f} {ev.pvband_nm2:11.0f} "
              f"{ev.epe_violations:9d} {rt}")

    os.makedirs(out_dir, exist_ok=True)
    write_pgm(target, os.path.join(out_dir, "target.pgm"))
    write_pgm(ilt_result.mask, os.path.join(out_dir, "ilt_mask.pgm"))
    write_pgm(flow_result.mask, os.path.join(out_dir, "ganopc_mask.pgm"))
    write_pgm(engine.wafer(flow_result.mask),
              os.path.join(out_dir, "ganopc_wafer.pgm"))
    print(f"\nimages written to {out_dir}/")
    return results


if __name__ == "__main__":
    main()
