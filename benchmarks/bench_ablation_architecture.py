"""Ablation: auto-encoder generator (the paper) vs U-Net extension.

The paper's generator is a plain auto-encoder; later learned-OPC work
adds encoder-decoder skip connections so fine geometry survives the
bottleneck.  Both architectures share the residual-correction output
and train under identical Algorithm 2 schedules; the comparison metric
is the lithography error of generated masks on held-out clips.
"""

from __future__ import annotations

import numpy as np

from repro.core import (GanOpcConfig, ILTGuidedPretrainer, MaskGenerator,
                        UNetMaskGenerator)
from repro.layoutgen import SyntheticDataset
from repro.litho import LithoConfig, LithoEngine, build_kernels

GRID = 32
ITERATIONS = 120


def _held_out_error(generator, dataset, indices, kernels):
    engine = LithoEngine.for_kernels(kernels)
    errors = []
    for i in indices:
        mask = generator.generate(dataset.target(i))
        error, _ = engine.error_and_gradient_wrt_mask(mask, dataset.target(i))
        errors.append(error)
    return float(np.mean(errors))


def test_autoencoder_vs_unet(benchmark):
    litho = LithoConfig.small(GRID)
    kernels = build_kernels(litho)
    dataset = SyntheticDataset(litho, size=12, seed=66, kernels=kernels)
    config = GanOpcConfig(grid=GRID, generator_channels=(4, 8),
                          discriminator_channels=(4, 8), batch_size=4)
    held_out = list(range(8, 12))

    def run():
        results = {}
        for name, cls in (("autoencoder", MaskGenerator),
                          ("unet", UNetMaskGenerator)):
            generator = cls(config.generator_channels,
                            rng=np.random.default_rng(1))
            ILTGuidedPretrainer(generator, litho, config,
                                kernels=kernels).train(
                dataset, ITERATIONS, rng=np.random.default_rng(2))
            results[name] = (_held_out_error(generator, dataset, held_out,
                                             kernels),
                             generator.num_parameters())
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n=== Ablation: generator architecture ===")
    for name, (error, params) in results.items():
        print(f"{name:12s} held-out litho error {error:10.1f}  "
              f"({params} parameters)")
        benchmark.extra_info[f"{name}_error"] = round(error, 1)

    # Both must have learned something comparable; the U-Net should not
    # be dramatically worse despite a different parameter budget.
    ae = results["autoencoder"][0]
    unet = results["unet"][0]
    assert unet <= ae * 1.5
    assert ae <= unet * 1.5
