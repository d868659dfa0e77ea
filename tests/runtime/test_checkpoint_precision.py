"""Cross-precision checkpoint round-trips.

A checkpoint written by an f32 run must resume as an f32 run — even
when loaded into a freshly built module, which is born f64.
``Module.load_state_dict`` adopts the *live* parameter dtype, so
without the dtype-faithful restore in ``runtime.checkpoint`` the
resumed run would silently continue in double precision, diverging
from the run that wrote the checkpoint.  Optimizer moments must make
the same trip: ``nn.to_dtype(module, dtype, optimizers=...)`` casts
the Adam moment buffers alongside the parameters.
"""

import numpy as np
import pytest

from repro import nn
from repro.core import MaskGenerator
from repro.runtime import Checkpointer, capture_state, restore_state

GRID = 32


def _module(precision, seed=1):
    module = MaskGenerator((4, 8), rng=np.random.default_rng(seed))
    if precision == "f32":
        nn.to_dtype(module, np.float32)
    return module


def _train_steps(module, optimizer, steps=2, seed=3):
    dtype = nn.compute_dtype(module)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        optimizer.zero_grad()
        batch = nn.Tensor(rng.random((2, 1, GRID, GRID)).astype(dtype))
        out = module(batch)
        loss = nn.mse_loss(out, batch)
        loss.backward()
        optimizer.step()


def _param_dtypes(module):
    return {name: param.data.dtype
            for name, param in module.named_parameters()}


@pytest.mark.parametrize("precision", ["f32", "f64"])
class TestDtypeFaithfulRestore:
    def test_restore_into_fresh_module_keeps_stored_dtype(self, precision,
                                                          tmp_path):
        expected = np.dtype(np.float32 if precision == "f32"
                            else np.float64)
        source = _module(precision)
        optimizer = nn.Adam(source.parameters(), lr=1e-3)
        _train_steps(source, optimizer)
        state = capture_state(1, {"generator": source},
                              {"generator": optimizer})
        saved = Checkpointer(str(tmp_path)).save(state)

        # A freshly built module is always f64 — the restore must cast
        # it to the checkpoint's dtype before loading.
        fresh = _module("f64", seed=99)
        fresh_optimizer = nn.Adam(fresh.parameters(), lr=1e-3)
        loaded = Checkpointer(str(tmp_path)).load(saved)
        restore_state(loaded, {"generator": fresh},
                      {"generator": fresh_optimizer})

        assert set(_param_dtypes(fresh).values()) == {expected}
        for moment in fresh_optimizer._m + fresh_optimizer._v:
            assert moment is None or moment.dtype == expected

    def test_resumed_run_matches_uninterrupted(self, precision, tmp_path):
        """checkpoint-at-k + resume == uninterrupted run (bit-exact)."""
        # Uninterrupted: 4 steps.
        straight = _module(precision)
        straight_opt = nn.Adam(straight.parameters(), lr=1e-3)
        _train_steps(straight, straight_opt, steps=2, seed=3)
        _train_steps(straight, straight_opt, steps=2, seed=4)

        # Interrupted: 2 steps, checkpoint, restore into a fresh f64
        # module, 2 more steps.
        source = _module(precision)
        source_opt = nn.Adam(source.parameters(), lr=1e-3)
        _train_steps(source, source_opt, steps=2, seed=3)
        state = capture_state(2, {"generator": source},
                              {"generator": source_opt})
        saved = Checkpointer(str(tmp_path)).save(state)

        resumed = _module("f64", seed=99)
        resumed_opt = nn.Adam(resumed.parameters(), lr=1e-3)
        restore_state(Checkpointer(str(tmp_path)).load(saved),
                      {"generator": resumed}, {"generator": resumed_opt})
        _train_steps(resumed, resumed_opt, steps=2, seed=4)

        for (name, a), (_, b) in zip(straight.named_parameters(),
                                     resumed.named_parameters()):
            assert a.data.dtype == b.data.dtype, name
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)


class TestToDtypeOptimizerState:
    def test_adam_moments_cast(self):
        module = _module("f64")
        optimizer = nn.Adam(module.parameters(), lr=1e-3)
        _train_steps(module, optimizer)
        assert all(m.dtype == np.float64 for m in optimizer._m)
        nn.to_dtype(module, np.float32, optimizers=[optimizer])
        assert all(m.dtype == np.float32 for m in optimizer._m)
        assert all(v.dtype == np.float32 for v in optimizer._v)

    def test_cast_after_step_matches_fresh_f32(self):
        """Module cast mid-run with optimizer state == updates computed
        in f32 from there on (no silent promotion through f64 moments)."""
        module = _module("f64")
        optimizer = nn.Adam(module.parameters(), lr=1e-3)
        _train_steps(module, optimizer)
        nn.to_dtype(module, np.float32, optimizers=[optimizer])
        _train_steps(module, optimizer, steps=1, seed=5)
        assert set(_param_dtypes(module).values()) == {
            np.dtype(np.float32)}

    def test_base_optimizer_to_dtype_validates(self):
        module = _module("f64")
        optimizer = nn.Adam(module.parameters(), lr=1e-3)
        with pytest.raises(TypeError):
            optimizer.to_dtype("not-a-dtype")
