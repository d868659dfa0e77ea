"""Condition stacks: ConditionSet semantics, C=1 bit-exactness, parity
with the pre-refactor per-corner simulator path, and process-window
gradient correctness."""

import os
import pickle

import numpy as np
import pytest

from repro.litho import (Condition, ConditionSet, LithoEngine,
                         build_kernels, clear_cache,
                         process_window_matrix)
from repro.litho.resist import hard_resist

from .reference import condition_relaxed_errors

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="module")
def bars32():
    mask = np.zeros((32, 32))
    mask[13:19, 4:28] = 1.0
    mask[6:10, 10:22] = 1.0
    return mask


@pytest.fixture(scope="module")
def window_engine(kernels32):
    conditions = ConditionSet.grid(defocuses=(0.0, 25.0),
                                   doses=(0.97, 1.03))
    return LithoEngine.for_conditions(kernels32, conditions)


class TestCondition:
    def test_defaults_are_nominal(self):
        c = Condition()
        assert (c.defocus, c.dose, c.weight) == (0.0, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Condition(dose=0.0)
        with pytest.raises(ValueError):
            Condition(weight=-1.0)

    def test_describe(self):
        assert Condition(40.0, 0.98).describe() == "f+40nm d0.98"


class TestConditionSet:
    def test_needs_corners(self):
        with pytest.raises(ValueError):
            ConditionSet(())
        with pytest.raises(ValueError):
            ConditionSet((Condition(weight=0.0),))

    def test_dose_corners(self):
        cs = ConditionSet.dose_corners(0.02)
        np.testing.assert_allclose(cs.doses, [0.98, 1.0, 1.02])
        np.testing.assert_allclose(cs.defocuses, 0.0)

    def test_grid_is_defocus_major(self):
        cs = ConditionSet.grid(defocuses=(0.0, 40.0), doses=(0.98, 1.02))
        assert [(c.defocus, c.dose) for c in cs] == [
            (0.0, 0.98), (0.0, 1.02), (40.0, 0.98), (40.0, 1.02)]

    def test_grid_weights_length_checked(self):
        with pytest.raises(ValueError):
            ConditionSet.grid(defocuses=(0.0,), doses=(1.0, 1.02),
                              weights=(1.0,))

    def test_parse_presets(self):
        assert ConditionSet.parse("nominal").is_single_nominal()
        assert len(ConditionSet.parse("dose", dose_variation=0.05)) == 3
        window = ConditionSet.parse("window")
        assert len(window) == 6
        assert set(window.defocuses) == {0.0, 40.0}

    def test_parse_explicit(self):
        cs = ConditionSet.parse("0:1.0,40:0.98:2.5")
        assert cs.corners[1] == Condition(40.0, 0.98, 2.5)
        with pytest.raises(ValueError):
            ConditionSet.parse("40")
        with pytest.raises(ValueError):
            ConditionSet.parse("a:b")

    def test_normalized_weights(self):
        cs = ConditionSet.grid(defocuses=(0.0,), doses=(0.98, 1.02),
                               weights=(1.0, 3.0))
        np.testing.assert_allclose(cs.normalized_weights(), [0.25, 0.75])

    def test_defocus_groups_first_appearance_order(self):
        cs = ConditionSet.parse("40:1.0,0:0.98,40:1.02")
        groups = cs.defocus_groups()
        assert groups == ((40.0, (0, 2)), (0.0, (1,)))

    def test_hashable_and_picklable(self):
        cs = ConditionSet.parse("window")
        assert hash(cs) == hash(ConditionSet.parse("window"))
        assert pickle.loads(pickle.dumps(cs)) == cs

    def test_is_single_nominal_respects_defocus(self):
        assert ConditionSet.nominal(40.0).is_single_nominal(40.0)
        assert not ConditionSet.nominal(40.0).is_single_nominal(0.0)
        assert not ConditionSet.dose_corners().is_single_nominal()


class TestSingleNominalFastPath:
    def test_for_conditions_nominal_returns_nominal_engine(self, kernels32):
        nominal = LithoEngine.for_kernels(kernels32)
        engine = LithoEngine.for_conditions(kernels32,
                                            ConditionSet.nominal())
        assert engine is nominal

    def test_condition_engines_memoized(self, kernels32):
        cs = ConditionSet.dose_corners()
        a = LithoEngine.for_conditions(kernels32, cs)
        b = LithoEngine.for_conditions(kernels32, ConditionSet.dose_corners())
        assert a is b

    def test_c1_aerial_bit_exact(self, kernels32, bars32):
        engine = LithoEngine.for_conditions(kernels32,
                                            ConditionSet.nominal())
        nominal = engine.aerial(bars32)
        stacked = engine.condition_aerial(bars32)
        assert stacked.shape == (1,) + nominal.shape
        assert np.array_equal(stacked[0], nominal)

    def test_c1_gradient_bit_exact(self, kernels32, bars32):
        engine = LithoEngine.for_conditions(kernels32,
                                            ConditionSet.nominal())
        relaxed = 0.2 + 0.6 * bars32
        e0, g0 = engine.error_and_gradient_wrt_mask(relaxed, bars32)
        e1, g1 = engine.condition_error_and_gradient_wrt_mask(
            relaxed, bars32, objective="weighted")
        assert e0 == e1
        assert np.array_equal(g0, g1)


class TestWindowParity:
    """The engine's stacked corner evaluation must reproduce the
    pre-refactor one-simulator-per-corner results exactly."""

    def test_matches_committed_reference(self, litho32):
        with np.load(os.path.join(FIXTURES, "window_reference.npz")) as ref:
            window = process_window_matrix(
                ref["mask"], ref["target"], litho32,
                doses=tuple(ref["doses"]),
                defocuses=tuple(ref["defocuses"]))
            np.testing.assert_allclose(window.l2_error, ref["l2_error"],
                                       atol=1e-10)

    def test_matches_per_corner_nominal_engines(self, litho32, kernels32,
                                                bars32):
        """Independent re-derivation: one nominal engine per focus
        plane, dose as an intensity scale, hard resist, L2."""
        doses = (0.96, 1.0, 1.04)
        defocuses = (0.0, 25.0, 50.0)
        window = process_window_matrix(bars32, bars32, litho32,
                                       doses=doses, defocuses=defocuses)
        from dataclasses import replace
        for fi, defocus in enumerate(defocuses):
            cfg = replace(litho32, optics=replace(litho32.optics,
                                                  defocus=defocus))
            engine = LithoEngine.for_kernels(build_kernels(cfg))
            intensity = engine.aerial(bars32)
            for di, dose in enumerate(doses):
                wafer = hard_resist(intensity * dose, litho32.threshold)
                expected = float(np.sum((wafer - bars32) ** 2))
                assert abs(window.l2_error[fi, di] - expected) <= 1e-10

    def test_condition_litho_errors_batched(self, window_engine, bars32,
                                            rng):
        other = (rng.random((32, 32)) > 0.7).astype(float)
        batch = np.stack([bars32, other])
        errors = window_engine.condition_litho_errors(batch, batch)
        assert errors.shape == (2, 4)
        single = window_engine.condition_litho_errors(bars32, bars32)
        np.testing.assert_array_equal(errors[0], single)


class TestConditionGradients:
    @pytest.mark.parametrize("objective", ["weighted", "worst"])
    def test_matches_finite_differences(self, window_engine, bars32, rng,
                                        objective):
        relaxed = np.clip(
            0.5 * bars32 + 0.25 + 0.05 * rng.random((32, 32)), 0.0, 1.0)
        target = bars32

        def scalar():
            errors = condition_relaxed_errors(window_engine, relaxed,
                                              target)
            if objective == "worst":
                return float(errors.max())
            lam = window_engine.conditions.normalized_weights()
            return float(errors @ lam)

        error, grad = window_engine.condition_error_and_gradient_wrt_mask(
            relaxed, target, objective=objective)
        assert abs(error - scalar()) <= 1e-9 * max(abs(error), 1.0)

        eps = 1e-6
        for i, j in [(15, 6), (15, 20), (7, 12), (10, 16), (3, 3), (25, 28)]:
            original = relaxed[i, j]
            relaxed[i, j] = original + eps
            upper = scalar()
            relaxed[i, j] = original - eps
            lower = scalar()
            relaxed[i, j] = original
            numeric = (upper - lower) / (2.0 * eps)
            assert abs(numeric - grad[i, j]) <= 1e-5 * max(abs(numeric), 1.0)

    @pytest.mark.parametrize("objective", ["weighted", "worst"])
    def test_window_stack_matches_per_corner_engines(self, litho32,
                                                     kernels32, bars32,
                                                     rng, objective):
        """The stacked reduced-raster adjoint equals aggregating one
        nominal engine per corner (defocus plane, dose) at 1e-10."""
        from dataclasses import replace
        conditions = ConditionSet.parse("window")
        engine = LithoEngine.for_conditions(kernels32, conditions)
        masks = np.stack([0.2 + 0.6 * bars32,
                          np.clip(0.5 * bars32 + 0.3 * rng.random((32, 32)),
                                  0.0, 1.0)])
        targets = np.stack([bars32, bars32])
        errors, grads = engine.condition_error_and_gradient_wrt_mask(
            masks, targets, objective=objective)

        corner_errors, corner_grads = [], []
        for corner in conditions:
            cfg = replace(litho32, optics=replace(litho32.optics,
                                                  defocus=corner.defocus))
            nominal = LithoEngine.for_kernels(build_kernels(cfg))
            e, g = nominal.error_and_gradient_wrt_mask(masks, targets,
                                                       dose=corner.dose)
            corner_errors.append(e)
            corner_grads.append(g)
        corner_errors = np.stack(corner_errors, axis=1)   # (N, C)
        corner_grads = np.stack(corner_grads, axis=1)     # (N, C, H, W)
        if objective == "weighted":
            lam = conditions.normalized_weights()
            expected = corner_errors @ lam
            expected_grad = np.einsum("c,ncxy->nxy", lam, corner_grads)
        else:
            worst = np.argmax(corner_errors, axis=1)
            expected = corner_errors[np.arange(2), worst]
            expected_grad = corner_grads[np.arange(2), worst]
        np.testing.assert_allclose(errors, expected, rtol=1e-10)
        np.testing.assert_allclose(grads, expected_grad, rtol=1e-10,
                                   atol=1e-10)

    def test_weighted_objective_honors_weights(self, kernels32, bars32):
        """An all-weight-on-one-corner stack must reduce to that
        corner's single-condition gradient."""
        lopsided = ConditionSet.grid(defocuses=(0.0, 25.0), doses=(1.0, 1.0),
                                     weights=(0.0, 0.0, 1.0, 0.0))
        engine = LithoEngine.for_conditions(kernels32, lopsided)
        relaxed = 0.2 + 0.6 * bars32
        error, grad = engine.condition_error_and_gradient_wrt_mask(
            relaxed, bars32, objective="weighted")

        from dataclasses import replace
        cfg = replace(kernels32.config,
                      optics=replace(kernels32.config.optics, defocus=25.0))
        single = LithoEngine.for_kernels(build_kernels(cfg))
        e_ref, g_ref = single.error_and_gradient_wrt_mask(relaxed, bars32)
        np.testing.assert_allclose(error, e_ref, rtol=1e-12)
        np.testing.assert_allclose(grad, g_ref, rtol=1e-9, atol=1e-12)

    def test_rejects_unknown_objective(self, window_engine, bars32):
        with pytest.raises(ValueError):
            window_engine.condition_error_and_gradient_wrt_mask(
                bars32, bars32, objective="nominal")

    def test_params_chain_rule(self, window_engine, bars32, rng):
        params = rng.standard_normal((32, 32)) * 0.5

        def scalar():
            from repro.litho.resist import sigmoid_mask
            relaxed = sigmoid_mask(params,
                                   window_engine.config.mask_steepness)
            errors = condition_relaxed_errors(window_engine, relaxed,
                                              bars32)
            lam = window_engine.conditions.normalized_weights()
            return float(errors @ lam)

        _, grad = window_engine.condition_error_and_gradient(
            params, bars32, objective="weighted")
        eps = 1e-6
        for i, j in [(15, 6), (7, 12), (25, 28)]:
            original = params[i, j]
            params[i, j] = original + eps
            upper = scalar()
            params[i, j] = original - eps
            lower = scalar()
            params[i, j] = original
            numeric = (upper - lower) / (2.0 * eps)
            assert abs(numeric - grad[i, j]) <= 1e-5 * max(abs(numeric), 1.0)


class TestSubstrateIntegration:
    def test_f32_condition_stack(self, kernels32, bars32):
        engine = LithoEngine.for_conditions(
            kernels32, ConditionSet.parse("window"), precision="f32")
        aerial = engine.condition_aerial(bars32)
        assert aerial.dtype == np.float32
        assert aerial.shape == (6, 32, 32)
        errors, grad = engine.condition_error_and_gradient_wrt_mask(
            (0.2 + 0.6 * bars32).astype(np.float32), bars32)
        assert grad.dtype == np.float32
        assert np.isfinite(errors)

    def test_workspace_buffers_do_not_alias(self, window_engine, bars32):
        first = window_engine.condition_aerial(bars32)
        snapshot = first.copy()
        window_engine.condition_aerial(np.zeros((32, 32)))
        np.testing.assert_array_equal(first, snapshot)

    def test_stats_and_spans_account_corners(self, kernels32, bars32):
        from repro.obs import trace
        engine = LithoEngine.for_conditions(kernels32,
                                            ConditionSet.dose_corners())
        before = engine.stats.snapshot()
        tracer = trace.enable()
        try:
            engine.condition_aerial(bars32)
            engine.condition_error_and_gradient_wrt_mask(
                0.2 + 0.6 * bars32, bars32)
        finally:
            trace.disable()
        delta = engine.stats.delta(before)
        assert delta["forward_calls"] == 1
        assert delta["gradient_calls"] == 1
        spans = tracer.spans()
        names = [s.name for s in spans]
        assert "litho.forward" in names and "litho.adjoint" in names
        forward = next(s for s in spans if s.name == "litho.forward")
        assert forward.args["corners"] == 3

    def test_conditions_survive_worker_transport(self, litho32, bars32):
        """A ConditionSet travels through the WorkerPool task channel."""
        from repro.ilt import ILTConfig
        from repro.parallel import parallel_ilt
        conditions = ConditionSet.dose_corners(0.04)
        targets = np.stack([bars32, bars32])
        config = ILTConfig(max_iterations=3, pw_objective="weighted")
        result = parallel_ilt(targets, litho32, config,
                              workers=2, conditions=conditions)
        serial = parallel_ilt(targets, litho32, config,
                              workers=1, conditions=conditions)
        for a, b in zip(result.results, serial.results):
            np.testing.assert_array_equal(a.mask, b.mask)


class TestDefocusedKernelCache:
    def test_defocused_builds_hit_disk_cache(self, tmp_path, monkeypatch,
                                              request):
        """A condition engine's per-focus kernel builds must be served
        from the disk cache on a cold (in-process-cache-cleared) start."""
        from repro.litho import LithoConfig, OpticsConfig
        import repro.litho.kernels as K

        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        # The in-process cache is keyed by config only (not cache dir);
        # drop our entries on exit so later cache tests start cold.
        request.addfinalizer(clear_cache)
        config = LithoConfig(grid=16, pixel_nm=8.0,
                             optics=OpticsConfig(source_points=5))
        conditions = ConditionSet.grid(defocuses=(0.0, 30.0), doses=(1.0,))
        clear_cache()
        kernels = build_kernels(config)
        engine = LithoEngine.for_conditions(kernels, conditions)
        mask = np.zeros((16, 16))
        mask[6:10, 4:12] = 1.0
        warm = engine.condition_aerial(mask)
        assert len(list(tmp_path.iterdir())) == 2  # one archive per focus

        # Cold start: drop in-process caches and make any real rebuild
        # explode — every kernel set must come from disk.
        clear_cache()

        def boom(*args, **kwargs):
            raise AssertionError("kernel decomposition ran despite cache")

        monkeypatch.setattr(K, "source_points", boom)
        kernels2 = build_kernels(config)
        engine2 = LithoEngine.for_conditions(kernels2, conditions)
        cold = engine2.condition_aerial(mask)
        np.testing.assert_array_equal(cold, warm)
