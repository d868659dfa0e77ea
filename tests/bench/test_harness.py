"""Integration tests for the experiment harness (quick scale)."""

import numpy as np
import pytest

from repro.bench import (ExperimentConfig, Pipeline, iccad13_suite,
                         run_figure8, run_figure9, run_table2,
                         train_generators)


def assert_same_results(serial, pooled):
    """Every mask and every evaluation field but the wall-clock match."""
    for method, evaluations in serial.columns.items():
        assert len(pooled.masks[method]) == len(serial.masks[method])
        for a, b in zip(serial.masks[method], pooled.masks[method]):
            np.testing.assert_array_equal(a, b)
        assert len(pooled.columns[method]) == len(evaluations)
        for a, b in zip(evaluations, pooled.columns[method]):
            a, b = a.to_dict(), b.to_dict()
            a.pop("runtime_seconds"), b.pop("runtime_seconds")
            assert a == b, method


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline.build(ExperimentConfig.quick())


@pytest.fixture(scope="module")
def generators(pipeline):
    return train_generators(pipeline)


@pytest.fixture(scope="module")
def table2(pipeline, generators):
    clips = iccad13_suite(pipeline.litho)[:3]
    return run_table2(pipeline, generators, clips=clips)


class TestExperimentConfig:
    def test_presets_scale_down(self):
        assert ExperimentConfig.quick().grid < ExperimentConfig().grid
        assert ExperimentConfig.paper().dataset_size == 4000


class TestTrainGenerators:
    def test_histories_cover_iterations(self, pipeline, generators):
        cfg = pipeline.config
        assert generators.gan_history.iterations == cfg.gan_iterations
        assert generators.pgan_history.iterations == cfg.gan_iterations
        assert generators.pretrain_history.iterations == cfg.pretrain_iterations

    def test_generators_distinct(self, pipeline, generators, rng):
        from repro import nn
        x = nn.Tensor(rng.random((1, 1, pipeline.config.grid,
                                  pipeline.config.grid)))
        generators.gan.eval(), generators.pgan.eval()
        assert not np.allclose(generators.gan(x).data,
                               generators.pgan(x).data)


class TestTable2:
    def test_columns_cover_methods_and_clips(self, table2):
        assert set(table2.columns) == {"ILT", "GAN-OPC", "PGAN-OPC"}
        for evals in table2.columns.values():
            assert len(evals) == 3

    def test_masks_recorded(self, table2):
        for method, masks in table2.masks.items():
            assert len(masks) == 3
            for mask in masks:
                assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_runtimes_positive(self, table2):
        for evals in table2.columns.values():
            assert all(e.runtime_seconds > 0 for e in evals)

    def test_table_text_formatted(self, table2):
        assert "ratio" in table2.table
        assert "iccad13-01" in table2.table

    def test_averages_and_ratio(self, table2):
        l2, pvb, rt = table2.averages("ILT")
        assert l2 >= 0 and pvb >= 0 and rt > 0
        ratios = table2.ratio("GAN-OPC")
        assert len(ratios) == 3
        assert table2.ratio("ILT") == (1.0, 1.0, 1.0)

    def test_stage_seconds_per_clip(self, table2):
        assert set(table2.stage_seconds) == {"ILT", "GAN-OPC", "PGAN-OPC"}
        for method, stages in table2.stage_seconds.items():
            assert len(stages) == 3
            for entry in stages:
                assert set(entry) == {"generation", "refinement"}
        # ILT has no generator stage; the flows do.
        assert all(s["generation"] == 0.0
                   for s in table2.stage_seconds["ILT"])
        assert all(s["generation"] > 0.0
                   for s in table2.stage_seconds["PGAN-OPC"])

    def test_stage_averages_consistent_with_runtime(self, table2):
        for method in ("ILT", "GAN-OPC", "PGAN-OPC"):
            stages = table2.stage_averages(method)
            _, _, runtime = table2.averages(method)
            total = stages["generation"] + stages["refinement"]
            # Stage split covers (almost all of) the reported runtime;
            # the ILT column times the optimize call from outside, so
            # allow bookkeeping slack around the stage sum.  Both sides
            # are wall-clock on tiny workloads, so the lower bound is
            # generous — it guards against the split dropping a stage,
            # not against scheduler noise.
            assert total <= runtime * 1.001
            assert total >= runtime * 0.25


class TestWindowTable2:
    @pytest.fixture(scope="class")
    def window_table2(self, pipeline, generators):
        from repro.litho import ConditionSet
        clips = iccad13_suite(pipeline.litho)[:2]
        return run_table2(pipeline, generators, clips=clips,
                          conditions=ConditionSet.dose_corners(
                              pipeline.litho.dose_variation))

    def test_nominal_run_has_no_window_metrics(self, table2):
        assert not table2.has_window_metrics
        assert table2.window_averages("ILT") is None

    def test_window_metrics_populated(self, window_table2):
        assert window_table2.has_window_metrics
        for evals in window_table2.columns.values():
            assert len(evals) == 2
            for evaluation in evals:
                assert evaluation.window_pvband_nm2 is not None
                assert evaluation.worst_corner_l2_nm2 >= evaluation.l2_nm2

    def test_window_averages_and_table(self, window_table2):
        averages = window_table2.window_averages("PGAN-OPC")
        assert averages["window_pvband_nm2"] >= 0.0
        assert averages["worst_corner_l2_nm2"] > 0.0
        text = window_table2.window_table()
        for method in ("ILT", "GAN-OPC", "PGAN-OPC"):
            assert method in text

    def test_reporting_corners_keep_nominal_masks(self, table2,
                                                  window_table2):
        """--corners without a pw-objective only adds reporting: the
        optimized masks are bit-exact with the nominal run."""
        for method, masks in table2.masks.items():
            for i, window_mask in enumerate(window_table2.masks[method][:2]):
                np.testing.assert_array_equal(window_mask, masks[i])


class TestWeightedEngineStats:
    """A weighted process-window descent runs on the corner-stack
    engine, not the nominal one; its gradients still count in the
    reported engine stats, serial and pooled alike."""

    @pytest.fixture(scope="class")
    def weighted_runs(self, pipeline, generators):
        from repro.litho import ConditionSet
        from repro.obs import trace
        clips = iccad13_suite(pipeline.litho)[:2]
        conditions = ConditionSet.dose_corners(pipeline.litho.dose_variation)
        with trace.tracing() as tracer:
            serial = run_table2(pipeline, generators, clips=clips,
                                conditions=conditions,
                                pw_objective="weighted")
        iterations = int(tracer.summary()["ilt.step"]["count"])
        parallel = run_table2(pipeline, generators, clips=clips, workers=2,
                              conditions=conditions,
                              pw_objective="weighted")
        return serial, parallel, iterations

    def test_gradient_masks_count_every_iteration(self, weighted_runs):
        serial, _, iterations = weighted_runs
        assert iterations > 0
        assert int(serial.engine_stats["gradient_masks"]) == iterations

    def test_serial_and_pooled_counts_agree(self, weighted_runs):
        serial, parallel, _ = weighted_runs
        for counter in ("forward_calls", "forward_masks",
                        "gradient_calls", "gradient_masks"):
            assert int(parallel.engine_stats[counter]) == \
                int(serial.engine_stats[counter]), counter

    def test_serial_and_pooled_results_agree(self, weighted_runs):
        serial, parallel, _ = weighted_runs
        assert_same_results(serial, parallel)


class TestFigures:
    def test_figure8_gallery_rows(self, pipeline, table2):
        rows = run_figure8(pipeline, table2)
        assert len(rows) == 5  # masks x2, wafers x2, targets
        assert all(len(row) == 3 for row in rows)
        grid = pipeline.config.grid
        assert rows[0][0].shape == (grid, grid)

    def test_figure9_defect_census(self, pipeline, table2):
        comparisons = run_figure9(pipeline, table2)
        assert len(comparisons) == 3
        for comp in comparisons:
            assert comp.ilt_bridges >= 0
            assert comp.pgan_necks >= 0
            assert comp.ilt_overlay.shape == comp.pgan_overlay.shape


class TestTable2Parity:
    """Parallel Table 2 must account for every worker litho call
    (ISSUE 8 satellite): the shipped engine-counter deltas summed over
    the fleet reconcile 1:1 with the serial run's parent counters."""

    @pytest.fixture(scope="class")
    def parallel_table2(self, pipeline, generators):
        clips = iccad13_suite(pipeline.litho)[:3]
        return run_table2(pipeline, generators, clips=clips, workers=2)

    def test_engine_counts_match_serial(self, table2, parallel_table2):
        assert table2.pool_stats is None
        assert parallel_table2.pool_stats is not None
        for counter in ("forward_calls", "forward_masks",
                        "gradient_calls", "gradient_masks"):
            assert int(parallel_table2.engine_stats[counter]) == \
                int(table2.engine_stats[counter]), counter

    def test_fleet_table_renders(self, parallel_table2):
        text = parallel_table2.pool_stats.format_table()
        assert "litho engine" in text
        assert parallel_table2.engine_table()  # engine_stats populated

    def test_results_match_serial(self, table2, parallel_table2):
        assert_same_results(table2, parallel_table2)
