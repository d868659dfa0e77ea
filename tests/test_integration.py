"""Cross-module integration tests: the whole flow at smoke scale.

Each test exercises a complete path through several subsystems — the
kind of wiring that unit tests cannot catch.
"""

import numpy as np

from repro.bench import ExperimentConfig, Pipeline, iccad13_suite, run_table2, train_generators
from repro.core import (GanOpcConfig, GanOpcFlow, ILTGuidedPretrainer,
                        MaskGenerator, PairDiscriminator, GanOpcTrainer)
from repro.geometry import binarize, rasterize
from repro.ilt import ILTConfig, ILTOptimizer
from repro.layoutgen import SyntheticDataset
from repro.metrics import evaluate_mask, squared_l2


class TestEndToEndFlow:
    def test_pretrain_then_flow_beats_no_opc(self, litho32, kernels32,
                                             engine32):
        """Synthesize -> pretrain -> generate -> refine -> evaluate:
        the complete GAN-OPC pipeline must beat printing the raw
        target."""
        dataset = SyntheticDataset(litho32, size=8, seed=41,
                                   kernels=kernels32)
        config = GanOpcConfig(grid=32, generator_channels=(4, 8),
                              discriminator_channels=(4, 8), batch_size=4)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ILTGuidedPretrainer(generator, litho32, config,
                            kernels=kernels32).train(
            dataset, iterations=40, rng=np.random.default_rng(1))

        flow = GanOpcFlow(generator, litho32,
                          ILTConfig(max_iterations=40, patience=4),
                          kernels=kernels32)
        target = dataset.target(0)
        no_opc = squared_l2(engine32.wafer(target), target)
        result = flow.optimize(target)
        assert result.l2 < no_opc

    def test_full_training_then_alg1(self, litho32, kernels32):
        """Pre-training followed by adversarial training (the PGAN-OPC
        recipe) keeps improving the mapping loss."""
        dataset = SyntheticDataset(litho32, size=6, seed=42,
                                   kernels=kernels32,
                                   ilt_config=ILTConfig(max_iterations=25))
        config = GanOpcConfig(grid=32, generator_channels=(4, 8),
                              discriminator_channels=(4, 8), batch_size=3)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        pre_history = ILTGuidedPretrainer(
            generator, litho32, config, kernels=kernels32).train(
            dataset, iterations=20, rng=np.random.default_rng(1))
        discriminator = PairDiscriminator(32, config.discriminator_channels,
                                          rng=np.random.default_rng(2))
        gan_history = GanOpcTrainer(generator, discriminator, config).train(
            dataset, iterations=30, rng=np.random.default_rng(3))
        assert pre_history.litho_error[-1] <= pre_history.litho_error[0]
        assert (np.mean(gan_history.l2_to_reference[-10:])
                <= np.mean(gan_history.l2_to_reference[:10]) * 1.1)

    def test_harness_quick_pipeline_shape(self):
        """The benchmark harness end to end at smoke scale: runtime
        ratios must show the flows faster than scratch ILT even with
        untrained generators (early stopping does it)."""
        pipeline = Pipeline.build(ExperimentConfig.quick())
        generators = train_generators(pipeline)
        clips = iccad13_suite(pipeline.litho)[:2]
        result = run_table2(pipeline, generators, clips=clips)
        assert result.ratio("GAN-OPC")[2] < 1.0
        assert result.ratio("PGAN-OPC")[2] < 1.0


class TestMetricsOverRealMasks:
    def test_evaluate_ilt_mask_full_report(self, litho64, kernels64, engine64):
        """ILT output evaluated with every metric, against the vector
        layout (EPE needs geometry, not just rasters)."""
        suite = iccad13_suite(litho64)
        clip = suite[9]  # the paper's easiest case (10)
        target = binarize(rasterize(clip.layout, 64))
        result = ILTOptimizer(litho64, ILTConfig(max_iterations=80),
                              kernels=kernels64).optimize(target)
        evaluation = evaluate_mask(engine64, result.mask, target,
                                   layout=clip.layout, name=clip.name,
                                   runtime_seconds=result.runtime_seconds)
        no_opc = evaluate_mask(engine64, target, target, layout=clip.layout)
        assert evaluation.l2_nm2 < no_opc.l2_nm2
        assert evaluation.epe_violations <= no_opc.epe_violations
        assert evaluation.bridge_defects == 0

    def test_checkpoint_roundtrip_through_flow(self, litho32, kernels32,
                                               tmp_path):
        """Generator trained -> saved -> reloaded -> same flow output."""
        from repro import nn
        config = GanOpcConfig(grid=32, generator_channels=(4, 8),
                              discriminator_channels=(4, 8), batch_size=2)
        dataset = SyntheticDataset(litho32, size=4, seed=7,
                                   kernels=kernels32)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(0))
        ILTGuidedPretrainer(generator, litho32, config,
                            kernels=kernels32).train(
            dataset, iterations=10, rng=np.random.default_rng(1))
        path = str(tmp_path / "gen.npz")
        nn.save_state(generator, path)

        clone = MaskGenerator(config.generator_channels,
                              rng=np.random.default_rng(99))
        nn.load_state(clone, path)
        target = dataset.target(0)
        np.testing.assert_allclose(generator.generate(target),
                                   clone.generate(target))
