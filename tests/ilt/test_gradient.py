"""Unit tests for the ILT gradient (Eq. 14) the engine computes."""

import numpy as np

from repro.litho import sigmoid_mask

from ..litho.reference import relaxed_wafer


def _target(grid=32):
    target = np.zeros((grid, grid))
    target[12:22, 6:26] = 1.0
    return target


class TestGradientCorrectness:
    def test_finite_difference_full_gradient(self, engine32, rng):
        """The analytic Eq. 14 gradient must match central differences of
        the relaxed error — the load-bearing correctness check for both
        the ILT engine and Algorithm 2 pre-training."""
        target = _target()
        params = rng.normal(scale=0.5, size=(32, 32))
        _, grad = engine32.error_and_gradient(params, target)

        eps = 1e-6
        positions = [(rng.integers(32), rng.integers(32)) for _ in range(12)]
        for i, j in positions:
            params[i, j] += eps
            upper, _ = engine32.error_and_gradient(params, target)
            params[i, j] -= 2 * eps
            lower, _ = engine32.error_and_gradient(params, target)
            params[i, j] += eps
            numeric = (upper - lower) / (2 * eps)
            assert abs(numeric - grad[i, j]) <= 1e-5 * max(abs(numeric), 1.0)

    def test_wrt_mask_finite_difference(self, engine32, rng):
        target = _target()
        mask = rng.random((32, 32))
        _, grad = engine32.error_and_gradient_wrt_mask(mask, target)
        eps = 1e-6
        for i, j in [(5, 5), (16, 16), (25, 10)]:
            mask[i, j] += eps
            upper, _ = engine32.error_and_gradient_wrt_mask(mask, target)
            mask[i, j] -= 2 * eps
            lower, _ = engine32.error_and_gradient_wrt_mask(mask, target)
            mask[i, j] += eps
            numeric = (upper - lower) / (2 * eps)
            assert abs(numeric - grad[i, j]) <= 1e-5 * max(abs(numeric), 1.0)

    def test_gradient_chain_rule_consistency(self, litho32, engine32, rng):
        """Full gradient == mask-sigmoid slope * wrt-mask gradient."""
        target = _target()
        params = rng.normal(size=(32, 32))
        relaxed = sigmoid_mask(params, litho32.mask_steepness)
        _, grad_mask = engine32.error_and_gradient_wrt_mask(relaxed, target)
        _, grad_full = engine32.error_and_gradient(params, target)
        expected = (litho32.mask_steepness * relaxed * (1 - relaxed)
                    * grad_mask)
        np.testing.assert_allclose(grad_full, expected, rtol=1e-12)

    def test_error_is_squared_l2_of_relaxed_wafer(self, engine32):
        target = _target()
        mask = target.copy()
        error, _ = engine32.error_and_gradient_wrt_mask(mask, target)
        wafer = relaxed_wafer(engine32, mask)
        np.testing.assert_allclose(error, np.sum((wafer - target) ** 2),
                                   rtol=1e-10)

    def test_dose_parameter_shifts_error(self, engine32):
        target = _target()
        mask = target.copy()
        nominal, _ = engine32.error_and_gradient_wrt_mask(mask, target)
        overdose, _ = engine32.error_and_gradient_wrt_mask(mask, target,
                                                           dose=1.2)
        assert nominal != overdose

    def test_descent_direction(self, engine32):
        """A small step against the gradient must not increase E."""
        target = _target()
        params = 1.0 * (2.0 * target - 1.0)
        error, grad = engine32.error_and_gradient(params, target)
        stepped = params - 1e-3 * grad
        new_error, _ = engine32.error_and_gradient(stepped, target)
        assert new_error <= error + 1e-9
