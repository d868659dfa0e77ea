"""The convolution lowering against a committed training-step fixture.

``fixtures/conv_reference.npz`` holds one Algorithm 2 step
(``ILTGuidedPretrainer.step``) followed by one Algorithm 1 iteration
(``GanOpcTrainer.train_iteration``) at 32 px, batch 2, f64: the initial
weights, the inputs, every network output, the losses and the gradient
of every parameter at each optimizer step.  It was recorded with the
im2col/col2im lowering; replaying the same steps on the current
lowering must reproduce all of it to 1e-10 relative (outputs against
each array's largest magnitude, gradients against the largest entry of
their optimizer step's gradient).

Regenerate only after an intentional change to the networks or the
trainers — never to make a lowering change pass::

    PYTHONPATH=src python tests/nn/test_conv_reference.py
"""

import os

import numpy as np

from repro.core import (GanOpcConfig, GanOpcTrainer, ILTGuidedPretrainer,
                        MaskGenerator, PairDiscriminator)

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "conv_reference.npz")
GRID = 32
RTOL = 1e-10


def _config() -> GanOpcConfig:
    return GanOpcConfig(grid=GRID, generator_channels=(8, 16, 32),
                        discriminator_channels=(8, 16, 32), batch_size=2)


def _inputs():
    """Two bar/L targets and softened reference masks (no RNG)."""
    targets = np.zeros((2, 1, GRID, GRID))
    targets[0, 0, 6:26, 8:12] = 1.0
    targets[0, 0, 6:26, 18:22] = 1.0
    targets[1, 0, 5:9, 5:27] = 1.0
    targets[1, 0, 9:27, 5:9] = 1.0
    references = np.clip(0.85 * targets + 0.05, 0.0, 1.0)
    references[:, :, ::7, :] += 0.04
    return targets, references


def _record_outputs(module, sink):
    forward = module.forward

    def recorded(*args):
        out = forward(*args)
        sink.append(out.data.copy())
        return out

    module.forward = recorded


def _record_grads(optimizer, module, sink):
    step = optimizer.step

    def recorded():
        sink.append({name: p.grad.copy()
                     for name, p in module.named_parameters()})
        step()

    optimizer.step = recorded


def reference_run(litho, kernels, initial=None):
    """Run the two steps; returns the flat ``{key: array}`` record.

    ``initial`` (the fixture's ``init/`` arrays) replaces the seeded
    weights, so replay does not depend on the initializers' RNG streams.
    """
    config = _config()
    generator = MaskGenerator(config.generator_channels,
                              rng=np.random.default_rng(0))
    discriminator = PairDiscriminator(GRID, config.discriminator_channels,
                                      rng=np.random.default_rng(1))
    if initial is not None:
        generator.load_state_dict({k[len("init/g/"):]: v
                                   for k, v in initial.items()
                                   if k.startswith("init/g/")})
        discriminator.load_state_dict({k[len("init/d/"):]: v
                                       for k, v in initial.items()
                                       if k.startswith("init/d/")})
    record = {f"init/g/{k}": v for k, v in generator.state_dict().items()}
    record.update({f"init/d/{k}": v
                   for k, v in discriminator.state_dict().items()})
    targets, references = _inputs()
    record["targets"], record["references"] = targets, references

    g_out, d_out, g_grads, d_grads = [], [], [], []
    _record_outputs(generator, g_out)
    _record_outputs(discriminator, d_out)
    pretrainer = ILTGuidedPretrainer(generator, litho, config,
                                     kernels=kernels)
    trainer = GanOpcTrainer(generator, discriminator, config)
    _record_grads(pretrainer.optimizer, generator, g_grads)
    _record_grads(trainer.optimizer_g, generator, g_grads)
    _record_grads(trainer.optimizer_d, discriminator, d_grads)

    generator.train()
    discriminator.train()
    record["pretrain/error"] = np.array(pretrainer.step(targets))
    record["gan/losses"] = np.array(
        trainer.train_iteration(targets, references))

    for index, out in enumerate(g_out):
        record[f"out/g/{index}"] = out
    for index, out in enumerate(d_out):
        record[f"out/d/{index}"] = out
    for step, grads in enumerate(g_grads):
        record.update({f"grad/g{step}/{k}": v for k, v in grads.items()})
    for step, grads in enumerate(d_grads):
        record.update({f"grad/d{step}/{k}": v for k, v in grads.items()})
    return record


def _scale(record, key):
    """Largest magnitude of the array, or of the whole gradient of its
    optimizer step: the gradient is one vector, and the conv biases that
    batch-norm cancels have true gradient zero, so their entries are
    rounding noise on the scale of the step's other gradients."""
    group = key.rsplit("/", 1)[0] + "/" if key.startswith("grad/") else key
    return max(float(np.max(np.abs(value)))
               for name, value in record.items() if name.startswith(group))


class TestConvReference:
    def test_training_steps_match_committed_reference(self, litho32,
                                                       kernels32):
        with np.load(FIXTURE) as stored:
            expected = {key: stored[key] for key in stored.files}
        actual = reference_run(litho32, kernels32, initial=expected)
        assert sorted(actual) == sorted(expected)
        # Two generator steps (pretrain, GAN) and one discriminator step.
        assert any(k.startswith("grad/g1/") for k in expected)
        assert any(k.startswith("grad/d0/") for k in expected)
        for key in sorted(expected):
            np.testing.assert_allclose(actual[key], expected[key], rtol=RTOL,
                                       atol=RTOL * _scale(expected, key),
                                       err_msg=key)


if __name__ == "__main__":
    from repro.litho import LithoConfig, build_kernels

    litho = LithoConfig.small(GRID)
    result = reference_run(litho, build_kernels(litho))
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    np.savez_compressed(FIXTURE, **result)
    print(f"wrote {FIXTURE}: {len(result)} arrays")
