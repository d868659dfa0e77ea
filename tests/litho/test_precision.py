"""Engine precision modes (f32/f64) and engine outputs that own their memory."""

import numpy as np
import pytest

from repro.litho import LithoEngine
from repro.litho.engine import PRECISION_DTYPES, resolve_precision

from .reference import real_spectrum


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
    def test_results_do_not_alias_workspace(self, kernels32, masks):
        """Outputs own their memory: a later call leaves them as they
        were."""
        engine = LithoEngine.for_kernels(kernels32)
        first = engine.aerial(masks)
        snapshot = first.copy()
        engine.aerial(np.roll(masks, 5, axis=-1))
        np.testing.assert_array_equal(first, snapshot)
