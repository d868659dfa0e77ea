"""Process-window objectives through the ILT optimizers."""

import numpy as np
import pytest

from repro.ilt import ILTConfig, ILTOptimizer
from repro.litho import ConditionSet, LithoEngine


@pytest.fixture(scope="module")
def target32():
    target = np.zeros((32, 32))
    target[12:20, 6:26] = 1.0
    return target


class TestObjectiveResolution:
    def test_config_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            ILTConfig(pw_objective="best")

    def test_nominal_ignores_conditions(self, litho32, kernels32,
                                        target32):
        """Only ``pw_objective`` selects the objective: a corner stack
        given with a nominal objective changes nothing."""
        cfg = ILTConfig(max_iterations=6, patience=None)
        plain = ILTOptimizer(litho32, cfg, kernels=kernels32)
        with_corners = ILTOptimizer(litho32, cfg, kernels=kernels32,
                                    conditions=ConditionSet.dose_corners())
        assert with_corners.conditions is None
        expected = plain.optimize(target32)
        result = with_corners.optimize(target32)
        np.testing.assert_array_equal(result.mask, expected.mask)
        np.testing.assert_array_equal(result.params, expected.params)

    def test_objective_without_conditions_gets_dose_band(self, litho32,
                                                         kernels32):
        opt = ILTOptimizer(litho32,
                           ILTConfig(max_iterations=2, pw_objective="worst"),
                           kernels=kernels32)
        assert opt.conditions is not None
        np.testing.assert_allclose(
            opt.conditions.doses,
            [1.0 - litho32.dose_variation, 1.0,
             1.0 + litho32.dose_variation])

    def test_nominal_stays_nominal(self, litho32, kernels32):
        opt = ILTOptimizer(litho32, ILTConfig(max_iterations=2),
                           kernels=kernels32)
        assert opt.conditions is None


class TestConditionDescent:
    def test_weighted_descent_converges(self, litho32, kernels32, target32):
        opt = ILTOptimizer(
            litho32, ILTConfig(max_iterations=20, pw_objective="weighted"),
            kernels=kernels32,
            conditions=ConditionSet.grid(defocuses=(0.0, 25.0),
                                         doses=(0.98, 1.02)))
        result = opt.optimize(target32)
        assert result.relaxed_history[-1] < result.relaxed_history[0]

    def test_worst_descent_reduces_worst_corner(self, litho32, kernels32,
                                                target32):
        conditions = ConditionSet.dose_corners(0.04)
        engine = LithoEngine.for_conditions(kernels32, conditions)
        opt = ILTOptimizer(
            litho32, ILTConfig(max_iterations=25, pw_objective="worst"),
            kernels=kernels32, conditions=conditions)
        result = opt.optimize(target32)
        before = engine.condition_litho_errors(target32, target32).max()
        after = engine.condition_litho_errors(result.mask, target32).max()
        assert after <= before
