"""The autograd graph's memory model: nodes hold closures, not tensors,
and backward releases each node once it has run (DESIGN.md §17)."""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.core import (GanOpcConfig, GanOpcTrainer, ILTGuidedPretrainer,
                        MaskGenerator, PairDiscriminator)
from repro.litho import LithoConfig, LithoEngine, build_kernels


class TestRelease:
    def test_second_backward_raises(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        loss = (a * a).sum()
        loss.backward()
        np.testing.assert_allclose(a.grad, [2.0, 4.0])
        with pytest.raises(nn.GraphReleasedError):
            loss.backward()
        np.testing.assert_allclose(a.grad, [2.0, 4.0])

    def test_backward_through_a_released_subgraph_raises(self):
        a = nn.Tensor([1.0, 2.0], requires_grad=True)
        shared = a * 3.0
        shared.sum().backward()
        with pytest.raises(nn.GraphReleasedError):
            (shared * shared).sum().backward()

    def test_leaf_backward_accumulates_every_time(self):
        a = nn.Tensor([1.0], requires_grad=True)
        a.backward(np.array([2.0]))
        a.backward(np.array([3.0]))
        np.testing.assert_allclose(a.grad, [5.0])


class TestLifetimes:
    @pytest.fixture()
    def stack(self):
        rng = np.random.default_rng(0)
        conv = nn.Conv2d(2, 4, 3, padding=1, rng=rng)
        norm = nn.BatchNorm2d(4, negative_slope=0.2)
        x = nn.Tensor(rng.normal(size=(2, 2, 8, 8)))
        return conv, norm, x

    def test_conv_output_dies_while_the_loss_lives(self, stack):
        """Batch-norm's backward does not read its input, so once the
        caller drops the conv output, nothing keeps its array."""
        conv, norm, x = stack
        hidden = conv(x)
        array = weakref.ref(hidden.data)
        loss = norm(hidden).sum()
        del hidden
        assert array() is None
        loss.backward()
        assert conv.weight.grad is not None

    def test_backward_frees_what_closures_saved(self, stack):
        """Batch-norm's closure saves its output; the loss still lives
        after backward, but the released graph no longer holds it."""
        conv, norm, x = stack
        out = norm(conv(x))
        array = weakref.ref(out.data)
        loss = out.sum()
        del out
        assert array() is not None
        loss.backward()
        assert array() is None


class TestTrainingPeaks:
    """Traced peaks of one training step at 128 px, batch 4, f64, set
    up as the benchmark's ``train`` workload sets it up.  Before nodes
    held closures and backward released them, a pretrain step peaked
    at 42.3 MiB and a GAN iteration at 54.4 MiB; then at 29.1 and
    28.1 MiB with whole-batch convolutions, and at 26.2 and 25.3 MiB
    with the generator's 128 px layers in one-sample chunks."""

    GRID = 128

    @pytest.fixture(scope="class")
    def steps(self):
        litho = LithoConfig.small(self.GRID)
        engine = LithoEngine.for_kernels(build_kernels(litho))
        config = GanOpcConfig.small(self.GRID)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(1))
        discriminator = PairDiscriminator(self.GRID,
                                          config.discriminator_channels,
                                          rng=np.random.default_rng(2))
        pretrainer = ILTGuidedPretrainer(generator, litho, config,
                                         engine=engine)
        trainer = GanOpcTrainer(generator, discriminator, config)
        rng = np.random.default_rng(0)
        shape = (config.batch_size, 1, self.GRID, self.GRID)
        targets = (rng.random(shape) > 0.6).astype(float)
        masks = (rng.random(shape) > 0.6).astype(float)
        steps = {"pretrain": lambda: pretrainer.step(targets),
                 "gan": lambda: trainer.train_iteration(targets, masks)}
        for step in steps.values():  # optimizer state, engine tables
            step()
        return steps

    @staticmethod
    def _traced_peak(step) -> float:
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            step()
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name, bound_mib", [("pretrain", 28),
                                                 ("gan", 27)])
    def test_step_peak(self, steps, name, bound_mib):
        peak = self._traced_peak(steps[name])
        assert peak < bound_mib * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"
