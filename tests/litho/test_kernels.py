"""Unit tests for TCC kernel construction."""

import dataclasses

import numpy as np
import pytest

from repro.litho import (LithoConfig, OpticsConfig, build_kernels,
                         clear_cache, frequency_grid, pupil_function,
                         source_map, source_points)


class TestSourceAndPupil:
    def test_source_points_inside_annulus(self):
        optics = OpticsConfig(sigma_inner=0.4, sigma_outer=0.8)
        points, weights = source_points(optics)
        radii = np.hypot(points[:, 0], points[:, 1])
        assert np.all(radii <= 0.8 + 1e-9)
        assert np.all(radii >= 0.4 - 1e-9)
        np.testing.assert_allclose(weights.sum(), 1.0)

    def test_source_map_annular(self):
        optics = OpticsConfig(sigma_inner=0.5, sigma_outer=0.8)
        image = source_map(optics, resolution=65)
        center = image[32, 32]
        assert center == 0.0  # hole of the annulus

    def test_pupil_is_lowpass(self):
        optics = OpticsConfig()
        fx, fy = frequency_grid(64, 8.0)
        pupil = pupil_function(optics, fx, fy)
        f_max = optics.na / optics.wavelength
        outside = (fx ** 2 + fy ** 2) > (f_max * 1.01) ** 2
        assert np.all(pupil[outside] == 0)
        assert pupil[0, 0] == 1.0  # DC passes

    def test_pupil_defocus_adds_phase(self):
        optics = OpticsConfig(defocus=50.0)
        fx, fy = frequency_grid(64, 8.0)
        pupil = pupil_function(optics, fx, fy)
        inside = np.abs(pupil) > 0
        assert np.any(np.abs(np.angle(pupil[inside])) > 1e-6)

    def test_frequency_grid_units(self):
        fx, fy = frequency_grid(32, 8.0)
        assert fx.shape == (32, 32)
        assert abs(fx[1, 0] - 1.0 / (32 * 8.0)) < 1e-15


class TestBuildKernels:
    def test_kernel_count_and_shapes(self, kernels32, litho32):
        assert kernels32.num_kernels == 24
        points = len(kernels32.rows)
        assert kernels32.values.shape == (24, points)
        assert kernels32.cols.shape == (points,)
        assert kernels32.full_grid().shape == (24, 32, 32)
        assert kernels32.grid == 32

    def test_only_passband_points_are_stored(self, kernels32):
        assert len(kernels32.rows) < 32 * 32 // 4
        full = kernels32.full_grid()
        outside = np.ones((32, 32), dtype=bool)
        outside[kernels32.rows, kernels32.cols] = False
        assert np.all(full[:, outside] == 0)
        np.testing.assert_array_equal(
            full[:, kernels32.rows, kernels32.cols], kernels32.values)

    def test_weights_positive_and_sorted(self, kernels32):
        assert np.all(kernels32.weights > 0)
        assert np.all(np.diff(kernels32.weights) <= 1e-12)

    def test_clear_field_normalized(self, kernels32):
        dc = np.abs(kernels32.full_grid()[:, 0, 0]) ** 2
        np.testing.assert_allclose(float((kernels32.weights * dc).sum()), 1.0)

    def test_cache_returns_same_object(self, litho32):
        a = build_kernels(litho32)
        b = build_kernels(litho32)
        assert a is b

    def test_cache_can_be_bypassed_and_cleared(self, litho32):
        a = build_kernels(litho32)
        b = build_kernels(litho32, cache=False)
        assert a is not b
        np.testing.assert_allclose(a.values, b.values)
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.cols, b.cols)

    def test_kernels_limited_by_source_rank(self):
        # A tiny source cannot produce 24 independent coherent systems
        # beyond its own point count.
        config = LithoConfig(
            grid=32, pixel_nm=8.0,
            optics=OpticsConfig(source_points=3, sigma_inner=0.0,
                                sigma_outer=0.8, num_kernels=24))
        kernels = build_kernels(config, cache=False)
        assert kernels.num_kernels <= 9

    def test_spatial_kernels_centered(self, kernels32):
        spatial = kernels32.spatial_kernels(shifted=True)
        dominant = np.abs(spatial[0])
        peak = np.unravel_index(dominant.argmax(), dominant.shape)
        center = (16, 16)
        assert abs(peak[0] - center[0]) <= 1 and abs(peak[1] - center[1]) <= 1


class TestDiskCache:
    def test_build_populates_and_reuses_disk_cache(self, tmp_path,
                                                   monkeypatch):
        from repro.litho.kernels import config_hash
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        config = LithoConfig(grid=16, pixel_nm=8.0,
                             optics=OpticsConfig(source_points=5))
        built = build_kernels(config)
        archive = tmp_path / (config_hash(config) + ".npz")
        assert archive.exists()

        clear_cache()  # force the in-process cache to miss
        reloaded = build_kernels(config)
        assert reloaded is not built
        for name in ("values", "rows", "cols", "weights"):
            np.testing.assert_array_equal(getattr(reloaded, name),
                                          getattr(built, name))

    def test_hash_is_sensitive_to_config(self):
        from repro.litho.kernels import config_hash
        a = config_hash(LithoConfig.small(32))
        b = config_hash(LithoConfig.small(64))
        c = config_hash(LithoConfig.small(32))
        assert a == c and a != b

    def test_env_off_disables_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", "off")
        config = LithoConfig(grid=16, pixel_nm=8.0,
                             optics=OpticsConfig(source_points=5))
        clear_cache()
        build_kernels(config)
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_archive_triggers_rebuild(self, tmp_path, monkeypatch):
        from repro.litho.kernels import config_hash
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        config = LithoConfig(grid=16, pixel_nm=8.0,
                             optics=OpticsConfig(source_points=5))
        archive = tmp_path / (config_hash(config) + ".npz")
        archive.write_bytes(b"not an npz archive")
        clear_cache()
        kernels = build_kernels(config)
        assert kernels.grid == 16  # rebuilt from scratch, no crash

    def test_full_grid_archive_triggers_rebuild(self, tmp_path, monkeypatch):
        """An archive in the format before passband storage (one full
        (N_h, grid, grid) array) is rebuilt, not loaded or crashed on."""
        from repro.litho.kernels import config_hash
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        config = LithoConfig(grid=16, pixel_nm=8.0,
                             optics=OpticsConfig(source_points=5))
        clear_cache()
        expected = build_kernels(config, disk_cache=False)
        archive = tmp_path / (config_hash(config) + ".npz")
        np.savez(archive, freq_kernels=expected.full_grid(),
                 weights=expected.weights)
        clear_cache()
        kernels = build_kernels(config)
        np.testing.assert_array_equal(kernels.values, expected.values)
        with np.load(archive) as rewritten:
            assert "values" in rewritten.files

    def test_explicit_disk_cache_false(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        config = LithoConfig(grid=16, pixel_nm=8.0,
                             optics=OpticsConfig(source_points=5))
        clear_cache()
        build_kernels(config, disk_cache=False)
        assert list(tmp_path.iterdir()) == []



class TestAbbeReference:
    """Kernels built with ``num_kernels`` at or above the TCC rank (the
    source's point count bounds it) reproduce Abbe imaging, Eq. 1 summed
    over source points: ``sum_s w_s |F^-1(M^ P(f + f_s))|^2`` over the
    same passband, normalized to clear field.  This pins the SVD and the
    clear-field normalization for the real masks the program images
    (ROADMAP item 11); Eq. 2's truncation to 24 kernels is left out.
    Through the centrosymmetric annular source, a real mask images the
    same with conjugated kernels, so the conjugation is not pinned."""

    @pytest.mark.parametrize("defocus", [0.0, 25.0])
    def test_full_rank_kernels_match_abbe(self, defocus):
        grid, pixel_nm = 32, 8.0
        optics = OpticsConfig(defocus=defocus)
        points, weights = source_points(optics)
        optics = dataclasses.replace(optics, num_kernels=len(points))
        kernels = build_kernels(LithoConfig(grid=grid, pixel_nm=pixel_nm,
                                            optics=optics), cache=False,
                                disk_cache=False)
        mask = np.random.default_rng(11).random((grid, grid))
        spectrum = np.fft.fft2(mask)

        passband = np.zeros((grid, grid), dtype=bool)
        passband[kernels.rows, kernels.cols] = True
        fx, fy = frequency_grid(grid, pixel_nm)
        abbe = np.zeros((grid, grid))
        clear = 0.0
        for (sx, sy), weight in zip(points, weights):
            pupil = pupil_function(optics, fx, fy, shift=(sx, sy)) * passband
            abbe += weight * np.abs(np.fft.ifft2(spectrum * pupil)) ** 2
            clear += weight * abs(pupil[0, 0]) ** 2
        abbe /= clear

        fields = np.fft.ifft2(spectrum * kernels.full_grid())
        image = np.einsum("k,kxy->xy", kernels.weights, np.abs(fields) ** 2)
        assert np.max(np.abs(image - abbe)) <= 1e-12 * np.max(abbe)
