"""Engine precision modes (f32/f64) and the workspace arena."""

import numpy as np
import pytest

from repro.litho import LithoEngine
from repro.litho.engine import (PRECISION_DTYPES, real_spectrum,
                                resolve_precision)
from repro.workspace import Workspace


@pytest.fixture(scope="module")
def masks():
    rng = np.random.default_rng(9)
    batch = rng.random((4, 32, 32))
    batch[:, 8:24, 8:24] += 0.5
    return np.clip(batch, 0.0, 1.0)


@pytest.fixture(scope="module")
def targets():
    rng = np.random.default_rng(13)
    return (rng.random((4, 32, 32)) > 0.7).astype(float)


class TestResolvePrecision:
    def test_default_is_f64(self):
        assert resolve_precision(None) == "f64"

    @pytest.mark.parametrize("alias,expected", [
        ("f32", "f32"), ("float32", "f32"), ("single", "f32"),
        ("f64", "f64"), ("float64", "f64"), ("double", "f64"),
        ("F32", "f32"),
    ])
    def test_aliases(self, alias, expected):
        assert resolve_precision(alias) == expected

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            resolve_precision("f16")

    def test_dtype_table(self):
        assert PRECISION_DTYPES["f64"] == (np.float64, np.complex128)
        assert PRECISION_DTYPES["f32"] == (np.float32, np.complex64)


class TestEnginePrecision:
    def test_for_kernels_memoizes_per_precision(self, kernels32):
        e64a = LithoEngine.for_kernels(kernels32, precision="f64")
        e64b = LithoEngine.for_kernels(kernels32, precision="f64")
        e32 = LithoEngine.for_kernels(kernels32, precision="f32")
        assert e64a is e64b
        assert e32 is not e64a
        assert e32.precision == "f32"
        assert e64a.precision == "f64"

    def test_f32_output_dtypes(self, kernels32, masks, targets):
        engine = LithoEngine.for_kernels(kernels32, precision="f32")
        aerial = engine.aerial(masks)
        assert aerial.dtype == np.float32
        errors, grads = engine.error_and_gradient_wrt_mask(masks, targets)
        assert grads.dtype == np.float32

    def test_f32_aerial_close_to_f64(self, kernels32, masks):
        e64 = LithoEngine.for_kernels(kernels32, precision="f64")
        e32 = LithoEngine.for_kernels(kernels32, precision="f32")
        a64 = e64.aerial(masks)
        a32 = e32.aerial(masks)
        np.testing.assert_allclose(a32, a64, atol=1e-4, rtol=1e-3)

    def test_f32_litho_error_within_documented_tolerance(self, kernels32,
                                                         masks, targets):
        """DESIGN.md §10: f32 litho error within 1e-3 relative of f64."""
        e64 = LithoEngine.for_kernels(kernels32, precision="f64")
        e32 = LithoEngine.for_kernels(kernels32, precision="f32")
        err64 = e64.litho_error(masks, targets)
        err32 = e32.litho_error(masks, targets)
        delta = np.abs(err32 - err64) / np.maximum(err64, 1.0)
        assert delta.max() <= 1e-3, delta

    def test_f32_gradient_direction_matches_f64(self, kernels32, masks,
                                                targets):
        e64 = LithoEngine.for_kernels(kernels32, precision="f64")
        e32 = LithoEngine.for_kernels(kernels32, precision="f32")
        _, g64 = e64.error_and_gradient_wrt_mask(masks, targets)
        _, g32 = e32.error_and_gradient_wrt_mask(masks, targets)
        scale = np.abs(g64).max()
        assert np.abs(g32 - g64).max() <= 1e-3 * scale

    def test_compact_spectrum_matches_full_rfft_path(self, kernels32,
                                                     masks):
        """The matmul-DFT forward is exact, not approximate: the
        discarded frequency bins are identically zero in the kernels,
        and the other half of the passband is the conjugate mirror of
        the half the engine keeps."""
        engine = LithoEngine.for_kernels(kernels32, precision="f64")
        spectrum = real_spectrum(masks)
        aerial_direct = engine.aerial(masks)
        stack = engine._nominal
        half_passband = np.ascontiguousarray(
            spectrum[:, stack.rows[:, None], stack.half[None, :]])
        group_intensity, _ = engine._forward_impl(stack, half_passband)
        aerial_from_spec = group_intensity[0]
        np.testing.assert_allclose(aerial_from_spec, aerial_direct,
                                   rtol=1e-10, atol=1e-12)


class TestWorkspace:
    def test_reuses_buffer_for_same_key(self):
        ws = Workspace(enabled=True)
        a = ws.get("k", (4, 4), np.float64)
        b = ws.get("k", (4, 4), np.float64)
        assert a is b
        assert ws.hits == 1 and ws.misses == 1

    def test_reallocates_on_shape_change(self):
        ws = Workspace(enabled=True)
        a = ws.get("k", (4, 4), np.float64)
        b = ws.get("k", (8, 8), np.float64)
        assert a is not b
        assert b.shape == (8, 8)

    def test_reallocates_on_dtype_change(self):
        ws = Workspace(enabled=True)
        a = ws.get("k", (4,), np.float64)
        b = ws.get("k", (4,), np.float32)
        assert a is not b
        assert b.dtype == np.float32

    def test_cross_dtype_never_aliases(self):
        """Buffers are keyed by ``(key, dtype)``: an f32 caller is never
        handed memory aliasing an f64 caller's live buffer."""
        ws = Workspace(enabled=True)
        a32 = ws.get("scratch", (8, 8), np.float32)
        a64 = ws.get("scratch", (8, 8), np.float64)
        assert a32.dtype == np.float32
        assert a64.dtype == np.float64
        assert not np.shares_memory(a32, a64)
        # Writing through one slot must not corrupt the other.
        a32.fill(1.0)
        a64.fill(2.0)
        assert float(a32[0, 0]) == 1.0
        assert float(a64[0, 0]) == 2.0

    def test_cross_dtype_does_not_thrash(self):
        ws = Workspace(enabled=True)
        a32 = ws.get("scratch", (4, 4), np.float32)
        a64 = ws.get("scratch", (4, 4), np.float64)
        # Alternating dtypes must hit both slots, not reallocate.
        assert ws.get("scratch", (4, 4), np.float32) is a32
        assert ws.get("scratch", (4, 4), np.float64) is a64
        assert ws.get("scratch", (4, 4), np.float32) is a32
        assert ws.hits == 3 and ws.misses == 2

    def test_complex_dtypes_keyed_separately(self):
        ws = Workspace(enabled=True)
        c64 = ws.get("spec", (4, 4), np.complex64)
        c128 = ws.get("spec", (4, 4), np.complex128)
        assert c64.dtype == np.complex64 and c128.dtype == np.complex128
        assert not np.shares_memory(c64, c128)

    def test_shape_change_reallocates_within_dtype(self):
        ws = Workspace(enabled=True)
        small = ws.get("buf", (2, 2), np.float64)
        big = ws.get("buf", (4, 4), np.float64)
        assert small is not big
        assert ws.get("buf", (4, 4), np.float64) is big

    def test_dtype_spec_normalized(self):
        ws = Workspace(enabled=True)
        a = ws.get("buf", (2, 2), np.float64)
        # "float64", np.float64 and np.dtype(np.float64) are one slot.
        assert ws.get("buf", (2, 2), "float64") is a
        assert ws.get("buf", (2, 2), np.dtype(np.float64)) is a

    def test_disabled_always_allocates(self):
        ws = Workspace(enabled=False)
        a = ws.get("k", (4,), np.float64)
        b = ws.get("k", (4,), np.float64)
        assert a is not b

    def test_zeros_is_cleared_on_reuse(self):
        ws = Workspace(enabled=True)
        a = ws.zeros("z", (3,), np.float64)
        a[:] = 7.0
        b = ws.zeros("z", (3,), np.float64)
        assert b is a
        np.testing.assert_array_equal(b, 0.0)

    def test_engine_workspace_hits_on_repeated_calls(self, kernels32,
                                                     masks, targets):
        engine = LithoEngine.for_kernels(kernels32)
        engine.error_and_gradient_wrt_mask(masks, targets)
        before = engine.workspace.hits
        engine.error_and_gradient_wrt_mask(masks, targets)
        assert engine.workspace.hits > before

    def test_results_do_not_alias_workspace(self, kernels32, masks):
        """Escaping outputs must be private copies, not arena views."""
        engine = LithoEngine.for_kernels(kernels32)
        first = engine.aerial(masks)
        snapshot = first.copy()
        engine.aerial(np.roll(masks, 5, axis=-1))
        np.testing.assert_array_equal(first, snapshot)
