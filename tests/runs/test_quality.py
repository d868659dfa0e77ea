"""Quality-view tests: stream folding, aggregates, gate records."""

import json
import math
import os

import numpy as np
import pytest

from repro.runs import (GATE_METRICS, QUALITY_SCHEMA_VERSION,
                        QualityRecordError, clip_metrics,
                        load_quality_record, quality_record_from_table2,
                        run_quality, write_quality_record)
from repro.runtime import RunLogger


@pytest.fixture
def run_dir(tmp_path):
    """A synthetic run directory with a quality stream plus a phase
    stream, exercising every record type the fold understands."""
    directory = tmp_path / "run"
    directory.mkdir()
    with RunLogger(str(directory / "quality.jsonl"), "table2") as logger:
        logger.event("run_manifest", run_id="r1", command="table2")
        for step in range(3):
            logger.quality_sample(step, 10.0 - step, l2=20.0 - step,
                                  clip="iccad13-01", method="ILT",
                                  stage="refinement")
        logger.clip_result(
            "iccad13-01", "ILT",
            {"l2_nm2": 100.0, "pvband_nm2": 50.0, "epe_violations": 2.0},
            runtime_seconds=1.5,
            epe_hotspots=[{"x": 10.0, "y": 20.0, "epe": 12.5}])
        logger.clip_result(
            "iccad13-02", "ILT",
            {"l2_nm2": 200.0, "pvband_nm2": float("nan"),
             "epe_violations": 4.0},
            runtime_seconds=2.5)
        logger.clip_result("iccad13-01", "GAN-OPC", {"l2_nm2": 80.0})
        logger.anomaly("divergence", iteration=7, action="rollback")
        logger.span_summary({"litho.forward": {"count": 4,
                                               "seconds": 0.5}})
    # A second stream in the same directory (the shape a training run
    # leaves behind): the fold must merge it additively.
    with RunLogger(str(directory / "pretrain.jsonl"), "pretrain") as log2:
        log2.quality_sample(0, 5.0, stage="pretrain")
        log2.span_summary({"litho.forward": {"count": 6, "seconds": 1.0}})
    return str(directory)


class TestRunQuality:
    def test_missing_directory_is_empty(self, tmp_path):
        quality = run_quality(str(tmp_path / "nope"))
        assert quality.samples == {} and quality.clip_results == {}

    def test_samples_grouped_by_series_key(self, run_dir):
        quality = run_quality(run_dir)
        series = quality.samples["ILT/iccad13-01/refinement"]
        assert [point[0] for point in series] == [0, 1, 2]
        assert series[0][1] == 10.0 and series[0][2] == 20.0
        assert quality.samples["pretrain"] == [(0, 5.0, None)]

    def test_clip_results_and_runtimes(self, run_dir):
        quality = run_quality(run_dir)
        assert quality.methods == ["GAN-OPC", "ILT"]
        assert quality.clips == ["iccad13-01", "iccad13-02"]
        assert quality.clip_results["ILT"]["iccad13-01"]["l2_nm2"] == 100.0
        assert quality.runtimes["ILT"] == {"iccad13-01": 1.5,
                                           "iccad13-02": 2.5}

    def test_nonfinite_metric_decoded_from_string(self, run_dir):
        quality = run_quality(run_dir)
        assert math.isnan(
            quality.clip_results["ILT"]["iccad13-02"]["pvband_nm2"])

    def test_hotspots_keyed_by_method_clip(self, run_dir):
        quality = run_quality(run_dir)
        assert quality.hotspots[("ILT", "iccad13-01")] == \
            [{"x": 10.0, "y": 20.0, "epe": 12.5}]

    def test_anomalies_in_stream_order(self, run_dir):
        quality = run_quality(run_dir)
        (anomaly,) = quality.anomalies
        assert anomaly["kind"] == "divergence"
        assert anomaly["action"] == "rollback"

    def test_spans_merged_across_streams(self, run_dir):
        quality = run_quality(run_dir)
        assert quality.spans["litho.forward"] == {"count": 10,
                                                 "seconds": 1.5}

    def test_aggregates_use_finite_values_only(self, run_dir):
        aggregates = run_quality(run_dir).aggregates()
        # NaN pvband on clip 02 drops out; the mean is over clip 01 only.
        assert aggregates["ILT"]["l2_nm2"] == 150.0
        assert aggregates["ILT"]["pvband_nm2"] == 50.0
        assert aggregates["ILT"]["epe_violations"] == 3.0
        assert aggregates["ILT"]["runtime_seconds"] == 2.0
        assert aggregates["GAN-OPC"]["l2_nm2"] == 80.0
        assert "runtime_seconds" not in aggregates["GAN-OPC"]

    def test_unknown_events_skipped(self, run_dir):
        with RunLogger(os.path.join(run_dir, "extra.jsonl"), "flow") as lg:
            lg.event("iteration", iteration=0, losses={"loss": 1.0},
                     seconds=0.1)
            lg.event("span", name="litho.forward", start=0.0,
                     duration=0.1, tid=1, depth=0, args={"masks": 1})
        quality = run_quality(run_dir)
        assert quality.clip_results["ILT"]["iccad13-01"]["l2_nm2"] == 100.0
        # The span summaries already count the span records.
        assert quality.spans["litho.forward"]["count"] == 10


class TestClipMetrics:
    def test_numeric_gate_subset_extracted(self):
        class FakeEvaluation:
            def as_dict(self):
                return {"l2_nm2": 1.0, "pvband_nm2": 2.0,
                        "epe_violations": 3, "neck_defects": 0,
                        "bridge_defects": 1, "window_pvband_nm2": None,
                        "runtime_seconds": 9.0, "name": "c"}

        metrics = clip_metrics(FakeEvaluation())
        assert metrics == {"l2_nm2": 1.0, "pvband_nm2": 2.0,
                           "epe_violations": 3.0, "neck_defects": 0.0,
                           "bridge_defects": 1.0}


def _table2_record(suite, **kwargs):
    """A gate record from a two-clip, one-method Table 2 result."""
    from repro.metrics.report import MaskEvaluation

    class Result:
        columns = {"ILT": [
            MaskEvaluation(name="iccad13-01", l2_px=1.0, l2_nm2=100.0,
                           pvband_nm2=50.0, epe_violations=2,
                           runtime_seconds=1.5),
            MaskEvaluation(name="iccad13-02", l2_px=2.0, l2_nm2=200.0,
                           pvband_nm2=70.0, epe_violations=4,
                           runtime_seconds=2.5)]}

    return quality_record_from_table2(Result(), suite, **kwargs)


class TestGateRecord:
    def test_record_round_trips(self, tmp_path):
        record = _table2_record("suite-x", git_rev="abc1234",
                                config_hash="deadbeef")
        assert record["schema"] == QUALITY_SCHEMA_VERSION
        assert record["suite"] == "suite-x"
        assert record["clips"]["ILT"]["iccad13-01"]["l2_nm2"] == 100.0
        assert set(record["aggregates"]["ILT"]) <= set(GATE_METRICS)

        path = str(tmp_path / "QUALITY.json")
        write_quality_record(record, path)
        assert load_quality_record(path) == record

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(QualityRecordError, match="not found"):
            load_quality_record(str(tmp_path / "absent.json"))

    def test_load_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(QualityRecordError, match="not valid JSON"):
            load_quality_record(str(path))

    def test_load_schema_less_record(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"clips": {}}))
        with pytest.raises(QualityRecordError, match="quality schema"):
            load_quality_record(str(path))

    def test_load_record_without_clips(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema": QUALITY_SCHEMA_VERSION}))
        with pytest.raises(QualityRecordError, match="no 'clips'"):
            load_quality_record(str(path))

    def test_written_record_is_strict_json(self, tmp_path):
        record = _table2_record("suite-x")
        path = str(tmp_path / "QUALITY.json")
        write_quality_record(record, path)

        def reject(token):
            raise AssertionError(f"non-strict literal {token!r}")
        with open(path) as fh:
            json.load(fh, parse_constant=reject)


class TestNonFiniteGateRecord:
    def _record(self):
        from repro.metrics.report import MaskEvaluation

        class Result:
            columns = {"ILT": [
                MaskEvaluation(name="iccad13-01", l2_px=1.0, l2_nm2=100.0,
                               pvband_nm2=float("nan"), epe_violations=2,
                               runtime_seconds=1.5),
                MaskEvaluation(name="iccad13-02", l2_px=2.0, l2_nm2=200.0,
                               pvband_nm2=70.0, epe_violations=4,
                               runtime_seconds=2.5)]}

        return quality_record_from_table2(Result(), "suite-x")

    def test_nan_metric_written_as_null_and_reloads(self, tmp_path):
        record = self._record()
        assert record["clips"]["ILT"]["iccad13-01"]["pvband_nm2"] is None
        assert record["clips"]["ILT"]["iccad13-02"]["pvband_nm2"] == 70.0
        assert record["aggregates"]["ILT"]["pvband_nm2"] is None
        assert record["aggregates"]["ILT"]["l2_nm2"] == 150.0
        path = str(tmp_path / "QUALITY.json")
        write_quality_record(record, path)
        assert load_quality_record(path) == record
        assert os.listdir(tmp_path) == ["QUALITY.json"]

    def test_failed_dump_leaves_no_temp_file(self, tmp_path):
        record = self._record()
        record["clips"]["ILT"]["iccad13-01"]["l2_nm2"] = float("nan")
        path = str(tmp_path / "QUALITY.json")
        with pytest.raises(ValueError, match="JSON compliant"):
            write_quality_record(record, path)
        assert os.listdir(tmp_path) == []


class TestTable2GateRecord:
    def test_record_from_table2_matches_columns(self):
        from repro.metrics.report import MaskEvaluation
        from repro.runs.quality import quality_record_from_table2

        class FakeResult:
            columns = {
                "ILT": [MaskEvaluation(name="c1", l2_px=1.0, l2_nm2=10.0,
                                       pvband_nm2=4.0, epe_violations=1,
                                       runtime_seconds=1.0),
                        MaskEvaluation(name="c2", l2_px=3.0, l2_nm2=30.0,
                                       pvband_nm2=8.0, epe_violations=3,
                                       runtime_seconds=1.0)],
            }

        record = quality_record_from_table2(FakeResult(), "suite-y")
        assert record["clips"]["ILT"]["c1"]["l2_nm2"] == 10.0
        assert record["aggregates"]["ILT"]["l2_nm2"] == 20.0
        assert record["aggregates"]["ILT"]["epe_violations"] == 2.0
        assert np.isfinite(record["aggregates"]["ILT"]["pvband_nm2"])
