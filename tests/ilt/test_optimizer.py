"""Unit tests for the steepest-descent ILT engine."""

import numpy as np
import pytest

from repro.ilt import ILTConfig, ILTOptimizer
from repro.litho import LithoEngine


def _two_wires(grid=32):
    # Two 80nm wires at legal (>=60nm) spacing on the 8nm-pixel grid.
    target = np.zeros((grid, grid))
    target[5:15, 4:28] = 1.0
    target[23:31, 4:28] = 1.0
    return target


@pytest.fixture(scope="module")
def optimizer(litho32, kernels32):
    return ILTOptimizer(litho32, ILTConfig(max_iterations=80, patience=None),
                        kernels=kernels32)


class TestILTConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_iterations": 0},
        {"step_size": 0.0},
        {"momentum": 1.0},
        {"eval_interval": 0},
        {"pw_objective": "best"},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ILTConfig(**kwargs)


class TestOptimize:
    def test_improves_over_target_mask(self, optimizer):
        """ILT must beat the no-OPC mask (print the target directly)."""
        target = _two_wires()
        result = optimizer.optimize(target)
        assert result.l2 < result.l2_history[0]
        assert result.l2 < 0.3 * result.l2_history[0] + 8

    def test_histories_recorded(self, optimizer):
        result = optimizer.optimize(_two_wires())
        assert len(result.relaxed_history) == result.iterations
        assert len(result.l2_history) >= 2

    def test_mask_is_binary(self, optimizer):
        result = optimizer.optimize(_two_wires())
        assert set(np.unique(result.mask)) <= {0.0, 1.0}

    def test_relaxed_mask_in_unit_interval(self, optimizer):
        result = optimizer.optimize(_two_wires())
        assert result.mask_relaxed.min() >= 0.0
        assert result.mask_relaxed.max() <= 1.0

    def test_grid_mismatch_rejected(self, optimizer):
        with pytest.raises(ValueError):
            optimizer.optimize(np.zeros((16, 16)))

    def test_max_iterations_override(self, optimizer, litho32, kernels32):
        result = optimizer.optimize(_two_wires(), max_iterations=7)
        assert result.iterations == 7
        for bad in (0, -1):
            with pytest.raises(ValueError):
                optimizer.optimize(_two_wires(), max_iterations=bad)
        short = ILTOptimizer(litho32,
                             ILTConfig(max_iterations=4, patience=None),
                             kernels=kernels32)
        assert short.optimize(_two_wires(),
                              max_iterations=None).iterations == 4
        assert short.optimize(_two_wires(), max_iterations=3).iterations == 3

    def test_stop_l2_early_stop(self, litho32, kernels32):
        config = ILTConfig(max_iterations=200, stop_l2=1e9, eval_interval=1)
        opt = ILTOptimizer(litho32, config, kernels=kernels32)
        result = opt.optimize(_two_wires())
        assert result.converged
        assert result.iterations == 1

    def test_patience_early_stop(self, litho32, kernels32):
        config = ILTConfig(max_iterations=500, patience=2, eval_interval=1,
                           step_size=1e-9)  # no progress possible
        opt = ILTOptimizer(litho32, config, kernels=kernels32)
        result = opt.optimize(_two_wires())
        assert result.converged
        assert result.iterations < 500

    def test_runtime_measured(self, optimizer):
        result = optimizer.optimize(_two_wires(), max_iterations=5)
        assert result.runtime_seconds > 0


class TestWarmStart:
    def test_initial_params_from_target(self, optimizer):
        target = _two_wires()
        params = optimizer.initial_params(target)
        assert params.min() == -optimizer.config.init_scale
        assert params.max() == optimizer.config.init_scale

    def test_initial_params_from_mask_roundtrip(self, optimizer, litho32):
        from repro.litho import sigmoid_mask
        target = _two_wires()
        warm = np.clip(target * 0.9 + 0.05, 0.0, 1.0)
        params = optimizer.initial_params(target, initial_mask=warm)
        np.testing.assert_allclose(
            sigmoid_mask(params, litho32.mask_steepness), warm, atol=1e-9)

    def test_refine_from_good_mask_converges_quickly(self, litho32,
                                                     kernels32):
        """Refinement from an already-optimized mask must not regress
        and should stop early."""
        target = _two_wires()
        full = ILTOptimizer(litho32, ILTConfig(max_iterations=80),
                            kernels=kernels32)
        first = full.optimize(target)
        refiner = ILTOptimizer(litho32,
                               ILTConfig(max_iterations=80, patience=3),
                               kernels=kernels32)
        refined = refiner.optimize(target, initial_mask=first.mask,
                                   max_iterations=40)
        assert refined.l2 <= first.l2 + 4
        assert refined.iterations <= 40


class TestDescentPrecision:
    @pytest.mark.parametrize("objective", ["nominal", "weighted"])
    def test_descent_independent_of_caller_precision(self, litho32,
                                                     kernels32, objective):
        """The descent runs on the f32 engine whatever the caller's
        precision; each result is scored on the caller's own engine."""
        target = _two_wires()
        config = ILTConfig(max_iterations=12, eval_interval=3,
                           patience=None, pw_objective=objective)
        results = {}
        for precision in ("f64", "f32"):
            engine = LithoEngine.for_kernels(kernels32, precision)
            result = ILTOptimizer(litho32, config,
                                  engine=engine).optimize(target)
            assert result.l2 == engine.discrete_l2(result.mask, target)
            results[precision] = result
        f64, f32 = results["f64"], results["f32"]
        assert f64.relaxed_history == f32.relaxed_history
        np.testing.assert_array_equal(f64.params, f32.params)
