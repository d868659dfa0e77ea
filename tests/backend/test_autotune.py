"""Autotuner: pure deterministic choice, FLOP model, preset persistence.

Measurement (wall-clock) and choice are separated by design:
:func:`choose_tuning` is a pure function of a
:class:`MeasurementTable`, so every determinism property here is
tested without timing anything.  The timing path itself
(:func:`measure_engine`) is exercised once on a tiny engine, and the
chosen tunings are checked for numerical parity against the reference
configuration.
"""

import json

import numpy as np
import pytest

from repro.backend.autotune import (AutotuneResult, EngineTuning,
                                    MeasurementTable, adjoint_flops,
                                    autotune_engine, blas_threads,
                                    candidate_key, choose_tuning,
                                    default_candidates, env_tuning,
                                    forward_flops, hardware_key,
                                    load_preset, measure_engine,
                                    parse_candidate_key, preset_key,
                                    save_preset)
from repro.litho import LithoConfig, LithoEngine, build_kernels
from repro.obs.profiler import matmul_flops


@pytest.fixture(scope="module")
def kernels():
    return build_kernels(LithoConfig.small(32))


def _table(entries, **overrides):
    kwargs = dict(backend="numpy", precision="f64", grid=64, batch=8,
                  flops=10**9, hardware="test-hw")
    kwargs.update(overrides)
    table = MeasurementTable(**kwargs)
    for key, seconds in entries.items():
        table.entries[key] = seconds
    return table


class TestTuningKeys:
    def test_candidate_key_roundtrip(self):
        for tuning in (EngineTuning(), EngineTuning(4), EngineTuning(16)):
            assert parse_candidate_key(candidate_key(tuning)) == tuning

    def test_key_format(self):
        assert candidate_key(EngineTuning()) == "chunkauto"
        assert candidate_key(EngineTuning(8)) == "chunk8"

    def test_to_from_dict(self):
        tuning = EngineTuning(batch_chunk=4)
        assert tuning.to_dict() == {"batch_chunk": 4}
        assert EngineTuning.from_dict(tuning.to_dict()) == tuning
        assert EngineTuning.from_dict({}) == EngineTuning()


class TestChooseTuning:
    def test_fastest_wins(self):
        table = _table({"chunkauto": 2.0, "chunk8": 1.0, "chunk4": 1.5})
        assert choose_tuning(table) == EngineTuning(8)

    def test_deterministic_given_fixed_table(self):
        entries = {"chunkauto": 1.25, "chunk8": 0.75, "chunk4": 0.75,
                   "chunk2": 0.9}
        # Dict insertion order must not matter.
        forward = _table(dict(entries))
        backward = _table(dict(reversed(list(entries.items()))))
        chosen = choose_tuning(forward)
        assert chosen == choose_tuning(backward)
        for _ in range(5):
            assert choose_tuning(forward) == chosen

    def test_ties_break_toward_reference(self):
        # Exact tie everywhere -> the auto chunk, then the smallest.
        table = _table({key: 1.0 for key in
                        ("chunk8", "chunkauto", "chunk4")})
        assert choose_tuning(table) == EngineTuning()
        table = _table({key: 1.0 for key in ("chunk8", "chunk4")})
        assert choose_tuning(table) == EngineTuning(4)

    def test_empty_table_is_reference(self):
        assert choose_tuning(_table({})) == EngineTuning()

    def test_roundtrip_through_dict(self):
        table = _table({"chunkauto": 2.0, "chunk4": 1.0})
        restored = MeasurementTable.from_dict(table.to_dict())
        assert restored == table
        assert choose_tuning(restored) == choose_tuning(table)

    def test_gflops(self):
        table = _table({"chunkauto": 2.0}, flops=4 * 10**9)
        assert table.gflops("chunkauto") == pytest.approx(2.0)


class TestFlopModel:
    def test_complex_matmul_is_4x_real(self):
        assert (forward_flops(64, 25, (9, 9), 1, 1)
                > 4 * matmul_flops((9, 64), (1, 64, 64)))

    def test_linear_in_batch(self):
        one = forward_flops(64, 25, (9, 9), 12, 1)
        four = forward_flops(64, 25, (9, 9), 12, 4)
        assert four == pytest.approx(4 * one, rel=1e-12)
        one = adjoint_flops(64, 25, (9, 9), (9, 9), 12, 1)
        four = adjoint_flops(64, 25, (9, 9), (9, 9), 12, 4)
        assert four == pytest.approx(4 * one, rel=1e-12)

    def test_linear_in_kernels_above_spectrum(self):
        base = forward_flops(64, 25, (9, 9), 0, 2)
        k1 = forward_flops(64, 25, (9, 9), 1, 2) - base
        k12 = forward_flops(64, 25, (9, 9), 12, 2) - base
        assert k12 == 12 * k1

    def test_adjoint_includes_forward(self):
        fwd = forward_flops(64, 33, (9, 9), 12, 4)
        adj = adjoint_flops(64, 33, (9, 9), (17, 17), 12, 4)
        assert adj > fwd

    def test_forward_term_by_term(self):
        """Every matmul of ``_forward_impl`` at its real shape: the
        passband spectrum, the per-kernel inverse DFTs onto the g x g
        raster, the power sum, and the resample up to the grid."""
        grid, g, (r, c), k, n = 128, 49, (25, 25), 24, 4
        expected = (
            4 * (r * grid * grid + r * grid * c) * 2 * n
            + k * (6 * n * r * c
                   + 4 * 2 * n * r * c * g + 4 * 2 * n * g * r * g
                   + 4 * n * g * g)
            + 2 * n * (g * g * grid + grid * g * grid))
        assert forward_flops(grid, g, (r, c), k, n) == expected

    def test_adjoint_term_by_term(self):
        grid, g, (r, c), (ar, ac), k, n = 128, 49, (25, 25), (25, 25), 24, 4
        per_kernel = (6 * n * g * g + 4 * 2 * n * ar * g * g
                      + 4 * 2 * n * ar * g * ac + 8 * n * ar * ac)
        expand = 4 * 2 * n * (ar * ac * grid + grid * ar * grid)
        resample_down = 2 * n * (grid * grid * g + g * grid * g)
        expected = (forward_flops(grid, g, (r, c), k, n)
                    + 12 * n * grid * grid + resample_down
                    + k * per_kernel + expand)
        assert adjoint_flops(grid, g, (r, c), (ar, ac), k, n) == expected

    def test_full_raster_skips_resamples(self):
        """``raster == grid`` is the coarse-pixel case: no resample."""
        grid, (r, c), k, n = 32, (25, 25), 24, 1
        with_resample = forward_flops(grid, 31, (r, c), k, n)
        full = forward_flops(grid, grid, (r, c), k, n)
        per_kernel_delta = k * (
            4 * 2 * n * r * c * (grid - 31)
            + 4 * 2 * n * r * (grid * grid - 31 * 31)
            + 4 * n * (grid * grid - 31 * 31))
        resample = 2 * n * (31 * 31 * grid + grid * 31 * grid)
        assert full - with_resample == per_kernel_delta - resample

    def test_matches_engine_passband(self, kernels):
        engine = LithoEngine(kernels=kernels)
        pb, apb = engine.passband_shape
        assert pb == apb == (7, 7) and engine.raster_size == 13
        flops = adjoint_flops(engine.grid, engine.raster_size, pb, apb,
                              len(engine.kernels.weights), 2)
        assert flops > 0


class TestDefaultCandidates:
    def test_batch_one_has_no_chunk_candidates(self):
        chunks = {c.batch_chunk for c in default_candidates(1)}
        assert chunks == {None}

    def test_reference_always_included(self):
        assert EngineTuning() in default_candidates(8)

    def test_candidates_are_auto_and_full_batch(self):
        assert default_candidates(8) == [EngineTuning(), EngineTuning(8)]


class TestPresets:
    def _result(self, tuning=EngineTuning(8), **overrides):
        table = _table({candidate_key(tuning): 1.0,
                        "chunkauto": 2.0}, **overrides)
        return AutotuneResult(tuning=tuning, table=table)

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "presets.json"
        save_preset(path, self._result(), hardware="test-hw")
        loaded = load_preset(path, "numpy", "f64", 64, hardware="test-hw")
        assert loaded == EngineTuning(8)

    def test_merge_preserves_other_presets(self, tmp_path):
        path = tmp_path / "presets.json"
        save_preset(path, self._result(), hardware="hw-a")
        save_preset(path, self._result(tuning=EngineTuning(4),
                                       precision="f32"), hardware="hw-a")
        assert load_preset(path, "numpy", "f64", 64,
                           hardware="hw-a") == EngineTuning(8)
        assert load_preset(path, "numpy", "f32", 64,
                           hardware="hw-a") == EngineTuning(4)

    def test_hardware_fallback(self, tmp_path):
        path = tmp_path / "presets.json"
        save_preset(path, self._result(), hardware="some-other-machine")
        # No exact match for this machine -> portable fallback.
        assert load_preset(path, "numpy", "f64", 64,
                           hardware="this-machine") == EngineTuning(8)

    def test_no_match_returns_none(self, tmp_path):
        path = tmp_path / "presets.json"
        save_preset(path, self._result(), hardware="hw")
        assert load_preset(path, "numpy", "f32", 64) is None
        assert load_preset(path, "numpy", "f64", 128) is None
        assert load_preset(tmp_path / "absent.json",
                           "numpy", "f64", 64) is None

    def test_schema_mismatch_returns_none(self, tmp_path):
        path = tmp_path / "presets.json"
        path.write_text(json.dumps({"schema": 999, "presets": {}}))
        assert load_preset(path, "numpy", "f64", 64) is None

    def test_save_rejects_schema_mismatch(self, tmp_path):
        path = tmp_path / "presets.json"
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError, match="schema"):
            save_preset(path, self._result())

    def test_document_shape(self, tmp_path):
        path = tmp_path / "presets.json"
        document = save_preset(path, self._result(), hardware="hw")
        assert document["schema"] == 1
        key = preset_key("numpy", "f64", 64, "hw")
        entry = document["presets"][key]
        assert entry["tuning"] == {"batch_chunk": 8}
        assert entry["gflops"] == pytest.approx(1.0)
        assert entry["measurements"]["entries"]

    def test_hardware_key_stable(self):
        assert hardware_key() == hardware_key()
        assert blas_threads() in hardware_key()


class TestEnvTuning:
    def test_unset_and_off(self, monkeypatch):
        for value in (None, "", "off", "0", "none", "OFF"):
            if value is None:
                monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)
            else:
                monkeypatch.setenv("REPRO_AUTOTUNE", value)
            assert env_tuning("numpy", "f64", 64) is None

    def test_path_lookup(self, tmp_path, monkeypatch):
        path = tmp_path / "presets.json"
        table = _table({"chunk4": 1.0})
        save_preset(path, AutotuneResult(tuning=EngineTuning(4),
                                         table=table), hardware="hw")
        monkeypatch.setenv("REPRO_AUTOTUNE", str(path))
        assert env_tuning("numpy", "f64", 64) == EngineTuning(4)

    def test_engine_adopts_env_preset(self, tmp_path, monkeypatch, kernels):
        path = tmp_path / "presets.json"
        table = _table({"chunk2": 1.0}, grid=32)
        save_preset(path, AutotuneResult(tuning=EngineTuning(2),
                                         table=table), hardware="hw")
        monkeypatch.setenv("REPRO_AUTOTUNE", str(path))
        engine = LithoEngine(kernels=kernels)
        assert engine.tuning == EngineTuning(2)
        assert engine._nominal.chunk == 2

    def test_explicit_tuning_beats_env(self, tmp_path, monkeypatch, kernels):
        path = tmp_path / "presets.json"
        table = _table({"chunk2": 1.0}, grid=32)
        save_preset(path, AutotuneResult(tuning=EngineTuning(2),
                                         table=table), hardware="hw")
        monkeypatch.setenv("REPRO_AUTOTUNE", str(path))
        engine = LithoEngine(kernels=kernels, tuning=EngineTuning())
        assert engine.tuning == EngineTuning()


class TestMeasureAndParity:
    def test_measure_engine_smoke(self, kernels):
        engine = LithoEngine(kernels=kernels)
        candidates = [EngineTuning(), EngineTuning(2)]
        table = measure_engine(engine, batch=2, candidates=candidates,
                               repeats=1)
        assert set(table.entries) == {candidate_key(c) for c in candidates}
        assert all(seconds > 0 for seconds in table.entries.values())
        assert table.backend == "numpy" and table.grid == 32
        assert table.flops > 0

    def test_autotune_engine_returns_candidate(self, kernels):
        engine = LithoEngine(kernels=kernels)
        candidates = [EngineTuning(), EngineTuning(1)]
        result = autotune_engine(engine, batch=2, candidates=candidates,
                                 repeats=1)
        assert result.tuning in candidates
        assert result.gflops > 0

    def test_batch_chunk_is_bit_exact(self, kernels):
        rng = np.random.default_rng(3)
        masks = rng.random((4, 32, 32))
        targets = (rng.random((4, 32, 32)) > 0.5).astype(float)
        reference = LithoEngine(kernels=kernels)
        chunked = LithoEngine(kernels=kernels, tuning=EngineTuning(2))
        e0, g0 = reference.error_and_gradient_wrt_mask(masks, targets)
        e1, g1 = chunked.error_and_gradient_wrt_mask(masks, targets)
        # Samples are independent -> chunking them is exactly the same
        # arithmetic in the same order.
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(g0, g1)
