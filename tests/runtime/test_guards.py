"""Fault-injection coverage for the divergence guard rails (ISSUE 2,
satellite 3).

A loss is monkeypatched to go NaN at a chosen iteration and each
divergence policy must do exactly what it advertises: ``raise`` aborts
with :class:`DivergenceError`, ``rollback`` restores the last
checkpointed weights and backs off the learning rate, ``skip`` leaves
weights untouched for that batch and continues.  Recovery budgets and
gradient clipping are covered at harness level.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import (GanOpcConfig, GanOpcTrainer, ILTGuidedPretrainer,
                        MaskGenerator, PairDiscriminator)
from repro.ilt import ILTConfig
from repro.layoutgen import SyntheticDataset
from repro.runtime import (Checkpointer, DivergenceError, RunConfig,
                           TrainingHarness, nonfinite_entries)

ITERATIONS = 4
NAN_AT = 2


@pytest.fixture(scope="module")
def dataset(litho32, kernels32):
    return SyntheticDataset(litho32, size=4, seed=5, kernels=kernels32,
                            ilt_config=ILTConfig(max_iterations=20))


def _config():
    return GanOpcConfig(grid=32, generator_channels=(4, 8),
                        discriminator_channels=(4, 8), batch_size=2,
                        seed=7)


def _pretrainer(litho32, kernels32, seed=1):
    generator = MaskGenerator((4, 8), rng=np.random.default_rng(seed))
    return ILTGuidedPretrainer(generator, litho32, _config(),
                               kernels=kernels32)


def _poison(pretrainer, at_iterations):
    """Make ``batch_litho_gradient`` return NaN errors at the given
    iteration indices (counting calls, one per training iteration)."""
    original = pretrainer.batch_litho_gradient
    calls = {"n": 0}

    def poisoned(masks, targets):
        errors, gradients = original(masks, targets)
        if calls["n"] in at_iterations:
            errors = np.full_like(errors, np.nan)
        calls["n"] += 1
        return errors, gradients

    pretrainer.batch_litho_gradient = poisoned


class TestRaisePolicy:
    def test_aborts_with_iteration_and_values(self, litho32, kernels32,
                                              dataset, tmp_path):
        pre = _pretrainer(litho32, kernels32)
        _poison(pre, {NAN_AT})
        with pytest.raises(DivergenceError, match="litho_error") as info:
            pre.train(dataset, ITERATIONS,
                      runtime=RunConfig(policy="raise"))
        assert info.value.iteration == NAN_AT
        assert "nan" in str(info.value).lower()


class TestSkipPolicy:
    def test_run_completes_and_batch_is_skipped(self, litho32, kernels32,
                                                dataset):
        pre = _pretrainer(litho32, kernels32)
        _poison(pre, {NAN_AT})
        history = pre.train(dataset, ITERATIONS,
                            runtime=RunConfig(policy="skip"))
        assert len(history.litho_error) == ITERATIONS
        assert np.isnan(history.litho_error[NAN_AT])
        finite = [v for i, v in enumerate(history.litho_error)
                  if i != NAN_AT]
        assert np.all(np.isfinite(finite))

    def test_skip_leaves_weights_untouched(self, litho32, kernels32,
                                           dataset):
        poisoned = _pretrainer(litho32, kernels32, seed=1)
        _poison(poisoned, {NAN_AT})
        clean = _pretrainer(litho32, kernels32, seed=1)

        # Up to (and including) the skipped iteration the two runs see
        # the same batches, and the skipped update must be a no-op.
        poisoned.train(dataset, NAN_AT + 1,
                       runtime=RunConfig(policy="skip"))
        clean.train(dataset, NAN_AT,
                    runtime=RunConfig(policy="skip"))
        for a, b in zip(poisoned.generator.parameters(),
                        clean.generator.parameters()):
            assert np.array_equal(a.data, b.data)


class TestRollbackPolicy:
    def test_rollback_restores_pre_nan_weights(self, litho32, kernels32,
                                               dataset, tmp_path):
        """With checkpoint_every=1 the rollback target is the state
        saved at the end of the iteration before the NaN."""
        ckpt_dir = str(tmp_path / "ckpts")
        pre = _pretrainer(litho32, kernels32)
        _poison(pre, {ITERATIONS - 1})  # diverge on the final iteration
        base_lr = pre.optimizer.lr
        history = pre.train(
            dataset, ITERATIONS,
            runtime=RunConfig(checkpoint_dir=ckpt_dir, checkpoint_every=1,
                              keep_last=ITERATIONS + 1, policy="rollback",
                              lr_backoff=0.5))
        assert len(history.litho_error) == ITERATIONS

        state = Checkpointer(ckpt_dir).load(
            Checkpointer(ckpt_dir).path_for(ITERATIONS - 1))
        restored = state.modules["generator"]
        live = dict(pre.generator.named_parameters())
        for name, saved in restored.items():
            if name in live:
                assert np.array_equal(live[name].data, saved)
        assert pre.optimizer.lr == pytest.approx(base_lr * 0.5)

    @pytest.mark.parametrize("k", [0, 1, ITERATIONS - 1])
    def test_nan_at_any_iteration_never_crashes(self, litho32, kernels32,
                                                dataset, k):
        pre = _pretrainer(litho32, kernels32)
        _poison(pre, {k})
        history = pre.train(dataset, ITERATIONS,
                            runtime=RunConfig(policy="rollback"))
        assert len(history.litho_error) == ITERATIONS
        assert np.isfinite(history.litho_error[-1]) or k == ITERATIONS - 1

    def test_recovery_budget_escalates(self, litho32, kernels32, dataset):
        pre = _pretrainer(litho32, kernels32)
        _poison(pre, set(range(ITERATIONS)))  # every iteration diverges
        with pytest.raises(DivergenceError, match="recovery attempts"):
            pre.train(dataset, ITERATIONS,
                      runtime=RunConfig(policy="rollback",
                                        max_recoveries=2))


class TestGanFaultInjection:
    def _trainer(self):
        config = _config()
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(1))
        discriminator = PairDiscriminator(
            config.grid, config.discriminator_channels,
            rng=np.random.default_rng(2))
        return GanOpcTrainer(generator, discriminator, config)

    def _poison_mse(self, monkeypatch, at_iterations):
        original = nn.mse_loss
        calls = {"n": 0}

        def poisoned(prediction, target, reduction="mean"):
            loss = original(prediction, target, reduction=reduction)
            bad = calls["n"] in at_iterations
            calls["n"] += 1
            if bad:
                return loss * float("nan")
            return loss

        monkeypatch.setattr(nn, "mse_loss", poisoned)

    def test_generator_nan_skips_discriminator(self, dataset, monkeypatch):
        self._poison_mse(monkeypatch, {NAN_AT})
        history = self._trainer().train(dataset, ITERATIONS,
                                        runtime=RunConfig(policy="skip"))
        assert len(history.generator_loss) == ITERATIONS
        assert np.isnan(history.generator_loss[NAN_AT])
        # The fakes are untrustworthy after a guarded generator step, so
        # the discriminator update is skipped for the iteration.
        assert np.isnan(history.discriminator_loss[NAN_AT])
        assert np.isfinite(history.discriminator_loss[NAN_AT + 1])

    def test_raise_policy_aborts(self, dataset, monkeypatch):
        self._poison_mse(monkeypatch, {NAN_AT})
        with pytest.raises(DivergenceError, match="generator_loss"):
            self._trainer().train(dataset, ITERATIONS,
                                  runtime=RunConfig(policy="raise"))


class TestHarnessUnit:
    """Direct harness coverage with a toy module (no litho in the loop)."""

    def _harness(self, config, seed=0):
        module = nn.Linear(3, 2, rng=np.random.default_rng(seed))
        optimizer = nn.Adam(module.parameters(), lr=0.1)
        harness = TrainingHarness("test", {"net": module},
                                  {"net": optimizer}, config)
        harness.begin(None, {}, 10)
        return module, optimizer, harness

    def _grads(self, module, value=1.0):
        def backward():
            for param in module.parameters():
                param.grad = np.full(param.data.shape, value)
        return backward

    def test_ok_update_steps_optimizer(self):
        module, _, harness = self._harness(RunConfig())
        before = [p.data.copy() for p in module.parameters()]
        harness.begin_iteration(0)
        assert harness.apply_update({"loss": 1.0}, self._grads(module),
                                    harness.optimizers["net"]) == "ok"
        assert any(not np.array_equal(a, p.data)
                   for a, p in zip(before, module.parameters()))

    def test_rollback_without_checkpointer_restores_run_start(self):
        module, optimizer, harness = self._harness(
            RunConfig(policy="rollback", lr_backoff=0.25))
        start = [p.data.copy() for p in module.parameters()]
        harness.begin_iteration(0)
        harness.apply_update({"loss": 1.0}, self._grads(module), optimizer)
        harness.begin_iteration(1)
        action = harness.apply_update({"loss": float("nan")},
                                      self._grads(module), optimizer)
        assert action == "rollback"
        assert all(np.array_equal(a, p.data)
                   for a, p in zip(start, module.parameters()))
        assert optimizer.lr == pytest.approx(0.1 * 0.25)

    def test_nonfinite_gradient_is_guarded(self):
        module, optimizer, harness = self._harness(RunConfig(policy="skip"))
        before = [p.data.copy() for p in module.parameters()]
        harness.begin_iteration(0)
        action = harness.apply_update({"loss": 1.0},
                                      self._grads(module, np.inf),
                                      optimizer)
        assert action == "skip"
        assert all(np.array_equal(a, p.data)
                   for a, p in zip(before, module.parameters()))

    def test_divergence_leaves_the_logger_to_its_run(self, tmp_path):
        """The raise anomaly lands in the run's stream, stamped with
        the harness's phase, and the logger stays open: the run that
        owns it closes it."""
        import json

        from repro.runtime import RunLogger

        path = str(tmp_path / "quality.jsonl")
        with RunLogger(path, "train") as logger:
            module, optimizer, harness = self._harness(
                RunConfig(logger=logger))
            harness.begin_iteration(0)
            with pytest.raises(DivergenceError):
                harness.apply_update({"loss": float("nan")},
                                     self._grads(module), optimizer)
            logger.event("run_end", iteration=0, seconds=0.0)
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert [(r["event"], r["phase"]) for r in records] == [
            ("run_start", "test"), ("anomaly", "test"),
            ("run_end", "train")]
        assert records[1]["action"] == "raise"

    def test_grad_clipping_bounds_update(self):
        module, optimizer, harness = self._harness(
            RunConfig(max_grad_norm=1.0))
        harness.begin_iteration(0)
        harness.apply_update({"loss": 1.0}, self._grads(module, 100.0),
                             optimizer, tag="net")
        # The recorded norm is pre-clip; the applied gradients are not.
        assert harness._grad_norms["net"] > 1.0
        post = nn.global_grad_norm(module.parameters())
        assert post <= 1.0 + 1e-9


class TestRunConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"policy": "explode"},
        {"checkpoint_every": -1},
        {"keep_last": 0},
        {"lr_backoff": 0.0},
        {"lr_backoff": 1.5},
        {"max_recoveries": -1},
        {"max_grad_norm": 0.0},
        {"resume": True},  # without checkpoint_dir
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


def test_nonfinite_entries_filters():
    values = {"a": 1.0, "b": float("nan"), "c": float("-inf"), "d": 0.0}
    assert set(nonfinite_entries(values)) == {"b", "c"}
