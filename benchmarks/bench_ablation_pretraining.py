"""Ablation: ILT-guided pre-training vs training towards ground truth.

Section 3.4: "Compared to the training towards ground truth (i.e.,
directly back-propagate the mask error to neuron weights), ILT-guided
pre-training provides step-by-step guidance ... which reduces the
possibility of the generator being stuck at local minimum region".

Both pre-trainers initialize identical generators on the same data; the
comparison metric is the *lithography* error of the generated masks on
held-out targets — the quantity that actually matters downstream.
"""

from __future__ import annotations

import numpy as np

from repro.core import (GanOpcConfig, GroundTruthPretrainer,
                        ILTGuidedPretrainer, MaskGenerator)
from repro.ilt import ILTConfig
from repro.layoutgen import SyntheticDataset
from repro.litho import LithoConfig, LithoEngine, build_kernels

GRID = 32
ITERATIONS = 120


def _held_out_litho_error(generator, dataset, indices, kernels):
    engine = LithoEngine.for_kernels(kernels)
    errors = []
    for i in indices:
        mask = generator.generate(dataset.target(i))
        error, _ = engine.error_and_gradient_wrt_mask(mask, dataset.target(i))
        errors.append(error)
    return float(np.mean(errors))


def test_ilt_guidance_vs_ground_truth(benchmark):
    litho = LithoConfig.small(GRID)
    kernels = build_kernels(litho)
    dataset = SyntheticDataset(litho, size=12, seed=55, kernels=kernels,
                               ilt_config=ILTConfig(max_iterations=40))
    config = GanOpcConfig(grid=GRID, generator_channels=(4, 8),
                          discriminator_channels=(4, 8), batch_size=4)
    train_idx = list(range(8))
    held_out = list(range(8, 12))

    def run():
        rng_a = np.random.default_rng(9)
        gen_ilt = MaskGenerator(config.generator_channels,
                                rng=np.random.default_rng(1))
        ILTGuidedPretrainer(gen_ilt, litho, config, kernels=kernels).train(
            dataset, ITERATIONS, rng=rng_a)

        rng_b = np.random.default_rng(9)
        gen_gt = MaskGenerator(config.generator_channels,
                               rng=np.random.default_rng(1))
        GroundTruthPretrainer(gen_gt, config).train(
            dataset, ITERATIONS, rng=rng_b)

        return (_held_out_litho_error(gen_ilt, dataset, held_out, kernels),
                _held_out_litho_error(gen_gt, dataset, held_out, kernels))

    ilt_error, gt_error = benchmark.pedantic(run, rounds=1, iterations=1)

    print("\n=== Ablation: pre-training signal (Section 3.4) ===")
    print(f"held-out litho error  ILT-guided:    {ilt_error:10.1f}")
    print(f"                      ground-truth:  {gt_error:10.1f}")
    benchmark.extra_info["ilt_guided_error"] = round(ilt_error, 1)
    benchmark.extra_info["ground_truth_error"] = round(gt_error, 1)

    # Shape: litho guidance optimizes the litho metric at least as well
    # as regression to reference masks does.
    assert ilt_error <= gt_error * 1.2
