"""Parity suite for the unified litho engine.

The batched :class:`~repro.litho.engine.LithoEngine` replaced four
hand-rolled copies of the Hopkins forward/adjoint FFT math.  These
tests pin its semantics against (a) a straight re-implementation of the
pre-refactor single-image path (plain ``fft2``, per-kernel inverse
transforms, adjoint accumulated in the spatial domain) to 1e-10, and
(b) finite differences, over grids {16, 32} x doses {0.98, 1.0, 1.02}
x batch sizes {1, 3}.  :class:`TestReducedRaster` adds the 128 px
reproduction grid (at best focus, where every kernel keeps one
Hermitian part, and at 40 nm defocus, where each keeps two), an odd
grid and coarse-pixel configs where the reduced raster falls back to
the full one.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.litho import LithoConfig, LithoEngine, build_kernels
from repro.litho.resist import sigmoid_mask
from repro.numerics import stable_sigmoid

from .reference import real_spectrum

GRIDS = (16, 32)
DOSES = (0.98, 1.0, 1.02)
BATCHES = (1, 3)


# ----------------------------------------------------------------------
# Reference: the pre-refactor single-image implementation, verbatim math.
# ----------------------------------------------------------------------
def reference_aerial(mask, kernels, dose=1.0):
    spectrum = np.fft.fft2(mask)
    fields = np.fft.ifft2(spectrum[None] * kernels.full_grid(),
                          axes=(-2, -1))
    intensity = np.einsum("k,kxy->xy", kernels.weights,
                          np.abs(fields) ** 2)
    if dose != 1.0:
        intensity = intensity * dose
    return intensity


def reference_gradient_wrt_mask(mask_relaxed, target, kernels, threshold,
                                resist_steepness, dose=1.0):
    spectrum = np.fft.fft2(mask_relaxed)
    fields = np.fft.ifft2(spectrum[None] * kernels.full_grid(),
                          axes=(-2, -1))
    intensity = np.einsum("k,kxy->xy", kernels.weights,
                          np.abs(fields) ** 2)
    if dose != 1.0:
        intensity = intensity * dose
    wafer = stable_sigmoid(resist_steepness * (intensity - threshold))
    diff = wafer - target
    error = float(np.sum(diff * diff))

    grad_intensity = 2.0 * resist_steepness * diff * wafer * (1.0 - wafer)
    if dose != 1.0:
        grad_intensity = grad_intensity * dose
    flipped = np.roll(kernels.full_grid()[:, ::-1, ::-1], 1, axis=(-2, -1))
    weighted = grad_intensity[None] * np.conj(fields)
    grad = np.fft.ifft2(np.fft.fft2(weighted, axes=(-2, -1)) * flipped,
                        axes=(-2, -1))
    grad = 2.0 * np.einsum("k,kxy->xy", kernels.weights, grad.real)
    return error, grad


def reference_gradient(params, target, kernels, threshold, resist_steepness,
                       mask_steepness, dose=1.0):
    relaxed = sigmoid_mask(params, mask_steepness)
    error, grad_mb = reference_gradient_wrt_mask(
        relaxed, target, kernels, threshold, resist_steepness, dose=dose)
    return error, mask_steepness * relaxed * (1.0 - relaxed) * grad_mb


# ----------------------------------------------------------------------
def _engine(grid):
    return LithoEngine.for_kernels(build_kernels(LithoConfig.small(grid)))


def _defocus_engine(grid, defocus):
    config = LithoConfig.small(grid)
    config = replace(config, optics=replace(config.optics, defocus=defocus))
    return LithoEngine.for_kernels(build_kernels(config))


def _mask_batch(grid, batch, seed=0):
    rng = np.random.default_rng(seed + grid + 7 * batch)
    masks = rng.random((batch, grid, grid))
    # A printable feature so wafer images are non-degenerate.
    masks[:, grid // 4: 3 * grid // 4, grid // 4: 3 * grid // 4] += 0.5
    return np.clip(masks, 0.0, 1.0)


def _target_batch(grid, batch):
    targets = np.zeros((batch, grid, grid))
    for i in range(batch):
        lo = 2 + i
        targets[i, lo:grid - lo, grid // 4: 3 * grid // 4] = 1.0
    return targets


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("dose", DOSES)
@pytest.mark.parametrize("batch", BATCHES)
class TestForwardParity:
    def test_aerial_matches_reference(self, grid, dose, batch):
        engine = _engine(grid)
        masks = _mask_batch(grid, batch)
        batched = engine.aerial(masks, dose=dose)
        assert batched.shape == (batch, grid, grid)
        for i in range(batch):
            expected = reference_aerial(masks[i], engine.kernels, dose=dose)
            np.testing.assert_allclose(batched[i], expected,
                                       rtol=1e-10, atol=1e-10)

    def test_single_equals_batched_slice(self, grid, dose, batch):
        engine = _engine(grid)
        masks = _mask_batch(grid, batch)
        batched = engine.aerial(masks, dose=dose)
        for i in range(batch):
            single = engine.aerial(masks[i], dose=dose)
            assert single.shape == (grid, grid)
            np.testing.assert_allclose(single, batched[i],
                                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("dose", DOSES)
@pytest.mark.parametrize("batch", BATCHES)
class TestGradientParity:
    def test_wrt_mask_matches_reference(self, grid, dose, batch):
        engine = _engine(grid)
        cfg = engine.config
        masks = _mask_batch(grid, batch)
        targets = _target_batch(grid, batch)
        errors, grads = engine.error_and_gradient_wrt_mask(
            masks, targets, dose=dose)
        assert errors.shape == (batch,)
        assert grads.shape == (batch, grid, grid)
        for i in range(batch):
            ref_error, ref_grad = reference_gradient_wrt_mask(
                masks[i], targets[i], engine.kernels, cfg.threshold,
                cfg.resist_steepness, dose=dose)
            np.testing.assert_allclose(errors[i], ref_error, rtol=1e-10)
            np.testing.assert_allclose(grads[i], ref_grad,
                                       rtol=1e-10, atol=1e-10)

    def test_full_matches_reference(self, grid, dose, batch):
        engine = _engine(grid)
        cfg = engine.config
        rng = np.random.default_rng(grid + batch)
        params = rng.normal(scale=0.5, size=(batch, grid, grid))
        targets = _target_batch(grid, batch)
        errors, grads = engine.error_and_gradient(params, targets, dose=dose)
        for i in range(batch):
            ref_error, ref_grad = reference_gradient(
                params[i], targets[i], engine.kernels, cfg.threshold,
                cfg.resist_steepness, cfg.mask_steepness, dose=dose)
            np.testing.assert_allclose(errors[i], ref_error, rtol=1e-10)
            np.testing.assert_allclose(grads[i], ref_grad,
                                       rtol=1e-10, atol=1e-10)

    def test_matches_finite_differences(self, grid, dose, batch):
        engine = _engine(grid)
        cfg = engine.config
        rng = np.random.default_rng(11 + grid + batch)
        params = rng.normal(scale=0.5, size=(batch, grid, grid))
        targets = _target_batch(grid, batch)
        _, grads = engine.error_and_gradient(params, targets, dose=dose)

        eps = 1e-6
        positions = [(rng.integers(batch), rng.integers(grid),
                      rng.integers(grid)) for _ in range(4)]
        for n, i, j in positions:
            params[n, i, j] += eps
            upper, _ = engine.error_and_gradient(params[n], targets[n],
                                                 dose=dose)
            params[n, i, j] -= 2 * eps
            lower, _ = engine.error_and_gradient(params[n], targets[n],
                                                 dose=dose)
            params[n, i, j] += eps
            numeric = (upper - lower) / (2 * eps)
            assert abs(numeric - grads[n, i, j]) <= \
                1e-5 * max(abs(numeric), 1.0)


def _assert_matches_reference(engine, masks, targets, dose=1.0):
    """Aerial, errors and mask gradients of a batch against the fft2
    reference at the suite's 1e-10 tolerance."""
    cfg = engine.config
    aerials = engine.aerial(masks, dose=dose)
    errors, grads = engine.error_and_gradient_wrt_mask(masks, targets,
                                                       dose=dose)
    for i in range(len(masks)):
        np.testing.assert_allclose(
            aerials[i], reference_aerial(masks[i], engine.kernels, dose),
            rtol=1e-10, atol=1e-10)
        ref_error, ref_grad = reference_gradient_wrt_mask(
            masks[i], targets[i], engine.kernels, cfg.threshold,
            cfg.resist_steepness, dose=dose)
        np.testing.assert_allclose(errors[i], ref_error, rtol=1e-10)
        np.testing.assert_allclose(grads[i], ref_grad, rtol=1e-10,
                                   atol=1e-10)


class TestReducedRaster:
    """Per-kernel work runs on the alias-free (2R-1)^2 raster and is
    resampled exactly onto the mask grid; the full raster is used only
    when 2R-1 >= grid (coarse pixels)."""

    @pytest.mark.parametrize("grid, pixel_nm, raster", [
        (128, 8.0, 49), (64, 8.0, 25), (32, 8.0, 13), (16, 8.0, 5),
        (33, 8.0, 13), (32, 24.0, 32), (32, 32.0, 32)])
    def test_raster_size(self, grid, pixel_nm, raster):
        config = LithoConfig.small(grid).with_grid(grid, pixel_nm)
        engine = LithoEngine.for_kernels(build_kernels(config))
        assert engine.raster_size == raster

    @pytest.mark.parametrize("grid, defocus, fields", [
        (128, 0.0, 24), (128, 40.0, 48), (64, 0.0, 24), (64, 25.0, 48)])
    def test_field_count(self, grid, defocus, fields):
        """Each kernel is even or odd at best focus, so it keeps one
        Hermitian part; a defocused kernel keeps both."""
        assert _defocus_engine(grid, defocus)._nominal.num_fields == fields

    @pytest.mark.parametrize("batch, defocus", [
        pytest.param(1, 0.0, id="1"), pytest.param(4, 0.0, id="4"),
        pytest.param(1, 40.0, id="defocus40-1"),
        pytest.param(4, 40.0, id="defocus40-4")])
    def test_matches_reference_at_128(self, batch, defocus):
        engine = _defocus_engine(128, defocus)
        _assert_matches_reference(engine, _mask_batch(128, batch),
                                  _target_batch(128, batch))

    @pytest.mark.parametrize("dose", [0.98, 1.02])
    def test_odd_grid(self, dose):
        engine = _engine(33)
        assert engine.raster_size == 13
        _assert_matches_reference(engine, _mask_batch(33, 2),
                                  _target_batch(33, 2), dose=dose)

    @pytest.mark.parametrize("pixel_nm", [24.0, 32.0])
    def test_coarse_pixels_use_full_raster(self, pixel_nm):
        config = LithoConfig.small(32).with_grid(32, pixel_nm)
        engine = LithoEngine.for_kernels(build_kernels(config))
        assert engine.raster_size == engine.grid
        _assert_matches_reference(engine, _mask_batch(32, 2),
                                  _target_batch(32, 2))


class TestBatchChunks:
    """Large batches run in chunks that cap the reduced-raster working
    set at about 8 MB.  Samples are independent, so a batch spanning
    several chunks equals per-mask calls bit for bit."""

    @pytest.mark.parametrize("grid, precision, chunk", [
        (128, "f64", 4), (128, "f32", 9), (64, "f64", 17)])
    def test_chunk_size(self, grid, precision, chunk):
        engine = LithoEngine.for_kernels(
            build_kernels(LithoConfig.small(grid)), precision=precision)
        assert engine._nominal.chunk == chunk

    @pytest.mark.parametrize("grid, batch, chunks", [(128, 9, 3),
                                                     (64, 20, 2)])
    def test_chunked_batch_equals_per_mask_calls(self, grid, batch, chunks):
        engine = _engine(grid)
        assert -(-batch // engine._nominal.chunk) == chunks
        masks = _mask_batch(grid, batch)
        targets = _target_batch(grid, batch)
        aerials = engine.aerial(masks)
        errors, grads = engine.error_and_gradient_wrt_mask(masks, targets)
        for i in range(batch):
            np.testing.assert_array_equal(aerials[i], engine.aerial(masks[i]))
            error, grad = engine.error_and_gradient_wrt_mask(masks[i],
                                                             targets[i])
            assert errors[i] == error
            np.testing.assert_array_equal(grads[i], grad)


class TestSpectrum:
    @pytest.mark.parametrize("grid", [16, 32, 33])
    def test_real_spectrum_matches_fft2(self, grid):
        rng = np.random.default_rng(grid)
        masks = rng.random((2, grid, grid))
        np.testing.assert_allclose(real_spectrum(masks),
                                   np.fft.fft2(masks, axes=(-2, -1)),
                                   rtol=1e-12, atol=1e-12)

    def test_engine_spectrum_single(self):
        engine = _engine(16)
        mask = _mask_batch(16, 1)[0]
        np.testing.assert_allclose(real_spectrum(mask), np.fft.fft2(mask),
                                   rtol=1e-12, atol=1e-12)


class TestEngineInterface:
    def test_for_kernels_is_memoized(self):
        kernels = build_kernels(LithoConfig.small(16))
        assert LithoEngine.for_kernels(kernels) is \
            LithoEngine.for_kernels(kernels)

    def test_rejects_mismatched_config(self):
        kernels = build_kernels(LithoConfig.small(16))
        with pytest.raises(ValueError):
            LithoEngine(LithoConfig.small(32), kernels=kernels)

    def test_rejects_non_square(self):
        engine = _engine(16)
        with pytest.raises(ValueError):
            engine.aerial(np.zeros((8, 16)))
        with pytest.raises(ValueError):
            engine.aerial(np.zeros((2, 8, 16)))

    def test_rejects_grid_mismatch(self):
        engine = _engine(16)
        with pytest.raises(ValueError):
            engine.aerial(np.zeros((32, 32)))

    def test_litho_error_scalar_vs_batch(self):
        engine = _engine(16)
        masks = _mask_batch(16, 3)
        targets = _target_batch(16, 3)
        batched = engine.litho_error(masks, targets)
        assert batched.shape == (3,)
        single = engine.litho_error(masks[0], targets[0])
        assert isinstance(single, float)
        np.testing.assert_allclose(single, batched[0])

    def test_binarized_score_tracks_discrete_l2(self):
        engine = _engine(16)
        targets = _target_batch(16, 2)
        params = 2.0 * targets - 1.0
        masks, l2 = engine.binarized_score(params, targets)
        assert masks.shape == (2, 16, 16)
        assert set(np.unique(masks)) <= {0.0, 1.0}
        np.testing.assert_allclose(
            l2, engine.litho_error(masks, targets))
