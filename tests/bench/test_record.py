"""Tests for the machine-readable benchmark record writer."""

import json
from types import SimpleNamespace

import pytest

from repro.bench import record
from repro.bench.record import (RECORD_SCHEMA_VERSION, BenchRecorder,
                                BenchRecordError, load_record, measure,
                                measure_interleaved)


class TestMeasure:
    def test_returns_best_of_positive_timing(self):
        calls = []
        seconds = measure(lambda: calls.append(1), repeats=3, warmup=2)
        assert seconds >= 0.0
        assert len(calls) == 5  # warmup + repeats

    def test_interleaved_alternates_and_keeps_best_of_each(self,
                                                             monkeypatch):
        clock = [0.0]
        monkeypatch.setattr(record, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        order = []

        def side(name, costs):
            costs = iter(costs)

            def call():
                order.append(name)
                clock[0] += next(costs)
            return call

        best = measure_interleaved(side("a", [9.0, 3.0, 1.0, 2.0]),
                                   side("b", [9.0, 5.0, 6.0, 4.0]),
                                   rounds=3, warmup=1)
        assert order == ["a", "b"] * 4  # warmup round, then 3 rounds
        assert best == [1.0, 4.0]


class TestBenchRecorder:
    def test_add_derives_throughput(self):
        recorder = BenchRecorder("substrate")
        entry = recorder.add("fwd/grid64/batch8", 0.5, grid=64, batch=8)
        assert entry == {"seconds": 0.5, "grid": 64, "batch": 8,
                         "throughput_per_second": 16.0}

    def test_add_without_batch_has_no_throughput(self):
        recorder = BenchRecorder("substrate")
        entry = recorder.add("flow_generation/grid32", 0.25, grid=32,
                             iterations=10)
        assert entry == {"seconds": 0.25, "grid": 32, "iterations": 10.0}

    def test_timeit_records_measured_entry(self):
        recorder = BenchRecorder("substrate")
        recorder.timeit("noop", lambda: None, batch=4, repeats=2)
        entry = recorder.entries["noop"]
        assert entry["seconds"] >= 0.0
        assert entry["batch"] == 4

    def test_write_round_trips_as_strict_json(self, tmp_path):
        recorder = BenchRecorder("substrate")
        recorder.add("b/grid64/batch1", 0.1, grid=64, batch=1)
        recorder.add("a/grid64/batch1", 0.2, grid=64, batch=1)
        path = recorder.write(str(tmp_path / "BENCH_test.json"))
        record = load_record(path)
        assert record["schema"] == RECORD_SCHEMA_VERSION
        assert record["benchmark"] == "substrate"
        assert list(record["entries"]) == ["a/grid64/batch1",
                                           "b/grid64/batch1"]
        assert "platform" in record["machine"]
        # Strict JSON: re-parse with NaN literals rejected.
        with open(path, "r", encoding="utf-8") as fh:
            json.load(fh, parse_constant=lambda t: pytest.fail(
                f"non-strict literal {t!r}"))

    def test_write_is_atomic_replacement(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        first = BenchRecorder("substrate")
        first.add("x", 1.0)
        first.write(path)
        second = BenchRecorder("substrate")
        second.add("y", 2.0)
        second.write(path)
        record = load_record(path)
        assert list(record["entries"]) == ["y"]

    def test_checked_in_substrate_record_is_loadable(self):
        import os
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        path = os.path.join(root, "BENCH_substrate.json")
        record = load_record(path)
        assert record["benchmark"] == "substrate"
        assert any(name.startswith("engine_forward/")
                   for name in record["entries"])
        assert any(name.startswith("flow_generation/")
                   for name in record["entries"])


class TestProvenanceStamps:
    """ISSUE 9 satellite: records carry git rev, UTC timestamp and the
    litho config hash, so a BENCH_*.json is traceable to the commit
    and optical model that produced it."""

    def test_git_rev_and_utc_timestamp_stamped(self):
        record = BenchRecorder("substrate").to_dict()
        assert record["git_rev"]  # "unknown" outside a checkout
        assert record["generated_utc"].endswith("Z")
        assert "T" in record["generated_utc"]

    def test_config_hash_included_when_given(self):
        assert "config_hash" not in BenchRecorder("substrate").to_dict()
        stamped = BenchRecorder("substrate", config_hash="cafe0001")
        assert stamped.to_dict()["config_hash"] == "cafe0001"

    def test_stamps_survive_write_and_load(self, tmp_path):
        recorder = BenchRecorder("substrate", config_hash="cafe0001")
        recorder.add("x", 1.0)
        record = load_record(recorder.write(str(tmp_path / "B.json")))
        assert record["config_hash"] == "cafe0001"
        assert record["generated_utc"].endswith("Z")


class TestLoadRecordErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(BenchRecordError, match="not found"):
            load_record(str(tmp_path / "absent.json"))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(BenchRecordError, match="not valid JSON"):
            load_record(str(path))

    def test_schema_less_record(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"entries": {}}))
        with pytest.raises(BenchRecordError, match="bench schema"):
            load_record(str(path))

    def test_record_without_entries(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema": RECORD_SCHEMA_VERSION}))
        with pytest.raises(BenchRecordError, match="no 'entries'"):
            load_record(str(path))

    def test_non_object_record(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(BenchRecordError, match="bench schema"):
            load_record(str(path))