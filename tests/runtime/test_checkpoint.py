"""Checkpoint round-trip property suite (ISSUE 2, satellite 1).

For each network type used in the paper reproduction the full
save → load cycle must be *bit-exact*: identical forward outputs and
identical next-step Adam updates.  Corrupt or truncated checkpoint
files must raise a clear error instead of loading garbage weights.
"""

import os

import numpy as np
import pytest

from repro import nn
from repro.core import (MaskGenerator, PairDiscriminator,
                        UNetMaskGenerator)
from repro.runtime import (CheckpointError, Checkpointer, TrainingState,
                           capture_state, restore_state)

GRID = 32


def _build(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "generator":
        return MaskGenerator((4, 8), rng=rng)
    if kind == "discriminator":
        return PairDiscriminator(GRID, (4, 8), rng=rng)
    if kind == "unet":
        return UNetMaskGenerator((4, 8), rng=rng)
    raise AssertionError(kind)


def _forward(module, kind, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "discriminator":
        target = nn.Tensor(rng.random((2, 1, GRID, GRID)))
        mask = nn.Tensor(rng.random((2, 1, GRID, GRID)))
        return module(target, mask).data
    return module(nn.Tensor(rng.random((2, 1, GRID, GRID)))).data


def _synthetic_grads(module, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=p.data.shape) for p in module.parameters()]


def _adam_update(module, optimizer, grads):
    for param, grad in zip(module.parameters(), grads):
        param.grad = grad.copy()
    optimizer.step()
    return [p.data.copy() for p in module.parameters()]


@pytest.mark.parametrize("kind", ["generator", "discriminator", "unet"])
class TestRoundTrip:
    def test_forward_bit_identical(self, kind, tmp_path):
        module = _build(kind, seed=1)
        optimizer = nn.Adam(module.parameters(), lr=1e-3)
        # Take a couple of steps so the Adam moments are nontrivial.
        for step_seed in (10, 11):
            _adam_update(module, optimizer, _synthetic_grads(module,
                                                             step_seed))
        reference = _forward(module, kind)

        ckpt = Checkpointer(str(tmp_path))
        ckpt.save(capture_state(2, {"net": module}, {"net": optimizer}))

        restored = _build(kind, seed=2)  # different init on purpose
        restored_opt = nn.Adam(restored.parameters(), lr=99.0)
        restore_state(ckpt.load(), {"net": restored},
                      {"net": restored_opt})
        assert np.array_equal(reference, _forward(restored, kind))

    def test_next_adam_update_identical(self, kind, tmp_path):
        module = _build(kind, seed=1)
        optimizer = nn.Adam(module.parameters(), lr=1e-3)
        _adam_update(module, optimizer, _synthetic_grads(module, 10))

        ckpt = Checkpointer(str(tmp_path))
        ckpt.save(capture_state(1, {"net": module}, {"net": optimizer}))
        restored = _build(kind, seed=2)
        restored_opt = nn.Adam(restored.parameters(), lr=1e-3)
        restore_state(ckpt.load(), {"net": restored},
                      {"net": restored_opt})

        # Identical gradients applied to both copies must produce
        # bit-identical parameters: the moment estimates, step counter
        # and bias correction all round-tripped exactly.
        grads = _synthetic_grads(module, 20)
        after_a = _adam_update(module, optimizer, grads)
        after_b = _adam_update(restored, restored_opt, grads)
        assert all(np.array_equal(a, b) for a, b in zip(after_a, after_b))


class TestRngAndHistory:
    def test_rng_state_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        rng.random(17)  # advance past the seed state
        ckpt = Checkpointer(str(tmp_path))
        ckpt.save(capture_state(5, {}, {}, rng=rng,
                                history={"loss": [1.0, 0.5]}))
        expected = rng.random(8)

        fresh = np.random.default_rng(42)
        state = ckpt.load()
        restore_state(state, {}, {}, rng=fresh)
        assert np.array_equal(fresh.random(8), expected)
        assert state.history == {"loss": [1.0, 0.5]}
        assert state.iteration == 5

class TestRetentionAndAtomicity:
    def test_keep_last_prunes_old_checkpoints(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path), keep_last=2)
        for iteration in range(5):
            ckpt.save(TrainingState(iteration=iteration))
        paths = ckpt.paths()
        assert len(paths) == 2
        assert ckpt.latest_path() == ckpt.path_for(4)
        assert ckpt.load().iteration == 4

    def test_no_tmp_files_left_behind(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path))
        ckpt.save(TrainingState(iteration=0))
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]

    def test_missing_directory_means_no_checkpoints(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path / "never-created"))
        assert ckpt.latest_path() is None
        with pytest.raises(CheckpointError, match="no checkpoints"):
            ckpt.load()


class TestCorruption:
    def _save_one(self, tmp_path):
        module = _build("generator", seed=1)
        optimizer = nn.Adam(module.parameters(), lr=1e-3)
        _adam_update(module, optimizer, _synthetic_grads(module, 10))
        ckpt = Checkpointer(str(tmp_path))
        path = ckpt.save(capture_state(1, {"net": module},
                                       {"net": optimizer}))
        return ckpt, path

    def test_garbage_file_raises_clear_error(self, tmp_path):
        ckpt, path = self._save_one(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"this is not a zip archive at all")
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            ckpt.load(path)

    def test_truncated_file_raises_clear_error(self, tmp_path):
        ckpt, path = self._save_one(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 3])
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            ckpt.load(path)

    def test_missing_metadata_raises(self, tmp_path):
        path = str(tmp_path / "ckpt-00000000.npz")
        np.savez(path, stray=np.zeros(3))
        with pytest.raises(CheckpointError, match="__meta__"):
            Checkpointer(str(tmp_path)).load(path)

    def test_missing_array_raises(self, tmp_path):
        ckpt, path = self._save_one(tmp_path)
        with np.load(path) as archive:
            data = {key: archive[key] for key in archive.files}
        victim = next(key for key in data if key.startswith("m::"))
        del data[victim]
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(CheckpointError, match="missing array"):
            ckpt.load(path)

    def test_restore_unknown_module_name_raises(self, tmp_path):
        ckpt, _ = self._save_one(tmp_path)
        other = _build("generator", seed=3)
        with pytest.raises(CheckpointError, match="no state for module"):
            restore_state(ckpt.load(), {"something_else": other}, {})

    def test_restore_mismatched_architecture_names_parameters(
            self, tmp_path):
        ckpt, _ = self._save_one(tmp_path)
        wrong = MaskGenerator((4, 8, 16), rng=np.random.default_rng(0))
        with pytest.raises(KeyError):
            restore_state(ckpt.load(), {"net": wrong}, {})
