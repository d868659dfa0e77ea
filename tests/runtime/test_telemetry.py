"""Telemetry schema contract tests (ISSUE 2, satellite 4).

Every JSONL line the substrate emits must parse as *strict* JSON and
validate against the checked-in ``telemetry_schema.json``; the litho
counters reported per iteration must add up to exactly what the
:class:`LithoEngine` instance actually executed.
"""

import json
import os

import numpy as np
import pytest

from repro.core import (GanOpcConfig, GanOpcFlow, GanOpcTrainer,
                        ILTGuidedPretrainer, MaskGenerator,
                        PairDiscriminator)
from repro.ilt import ILTConfig
from repro.layoutgen import SyntheticDataset
from repro.litho import LithoEngine
from repro.runtime import (RunConfig, RunLogger, TelemetrySchemaError,
                           sanitize, telemetry_schema, validate_record)
from repro.runtime.telemetry import SCHEMA_PATH, SCHEMA_VERSION


def _strict_loads(line):
    """json.loads that rejects the non-standard NaN/Infinity literals."""
    def reject(token):
        raise AssertionError(f"non-strict JSON literal {token!r} emitted")
    return json.loads(line, parse_constant=reject)


def _read_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [_strict_loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def dataset(litho32, kernels32):
    return SyntheticDataset(litho32, size=4, seed=5, kernels=kernels32,
                            ilt_config=ILTConfig(max_iterations=20))


class TestSchemaFile:
    def test_checked_in_schema_is_wellformed(self):
        with open(SCHEMA_PATH, "r", encoding="utf-8") as fh:
            schema = json.load(fh)
        assert schema == telemetry_schema()
        assert schema["version"] == SCHEMA_VERSION
        assert set(schema["common"]["required"]) == {"schema", "event",
                                                     "phase", "ts"}
        for event, spec in schema["events"].items():
            assert set(spec) == {"required", "optional"}, event


class TestSanitize:
    def test_nonfinite_floats_become_strings(self):
        assert sanitize(float("nan")) == "nan"
        assert sanitize(float("inf")) == "inf"
        assert sanitize(float("-inf")) == "-inf"

    def test_numpy_scalars_become_python(self):
        out = sanitize({"a": np.float64(1.5), "b": np.int32(3),
                        "c": [np.float32("nan")]})
        assert out == {"a": 1.5, "b": 3, "c": ["nan"]}
        assert type(out["a"]) is float and type(out["b"]) is int

    def test_unserializable_raises(self):
        with pytest.raises(TypeError):
            sanitize(object())


class TestValidateRecord:
    def _iteration(self, **extra):
        record = {"schema": SCHEMA_VERSION, "event": "iteration",
                  "phase": "pretrain", "ts": 1.0, "iteration": 0,
                  "losses": {"litho_error": 12.5}, "seconds": 0.1}
        record.update(extra)
        return record

    def test_valid_record_passes(self):
        validate_record(self._iteration())
        validate_record(self._iteration(losses={"l": "nan"},
                                        action="rollback",
                                        litho={"forward_calls": 2}))

    @pytest.mark.parametrize("mutate", [
        lambda r: r.pop("ts"),
        lambda r: r.pop("losses"),
        lambda r: r.update(event="no_such_event"),
        lambda r: r.update(schema=SCHEMA_VERSION + 1),
        lambda r: r.update(stray_field=1),
        lambda r: r.update(iteration=1.5),
        lambda r: r.update(losses={"l": "NaN"}),  # wrong spelling
        lambda r: r.update(litho={"forward_calls": "nan"}),
    ])
    def test_invalid_record_rejected(self, mutate):
        record = self._iteration()
        mutate(record)
        with pytest.raises(TelemetrySchemaError):
            validate_record(record)

    def test_logger_refuses_invalid_event(self, tmp_path):
        logger = RunLogger(str(tmp_path / "t.jsonl"), "pretrain")
        with pytest.raises(TelemetrySchemaError):
            logger.event("no_such_event", iteration=0)
        logger.close()


class TestSpanSummary:
    def _record(self, **extra):
        record = {"schema": SCHEMA_VERSION, "event": "span_summary",
                  "phase": "flow", "ts": 1.0,
                  "spans": {"ilt.step": {"count": 3, "seconds": 0.5}}}
        record.update(extra)
        return record

    def test_valid_record_passes(self):
        validate_record(self._record())
        validate_record(self._record(wall_seconds=1.0, coverage=0.93,
                                     trace_file="trace.json"))

    @pytest.mark.parametrize("spans", [
        {"s": {"count": 3}},                              # missing seconds
        {"s": {"count": 3, "seconds": 0.5, "extra": 1}},  # stray key
        {"s": {"count": 1.5, "seconds": 0.5}},            # non-int count
        {"s": {"count": 1, "seconds": "nan"}},            # non-finite
        {"s": 0.5},                                       # not an object
    ])
    def test_malformed_span_map_rejected(self, spans):
        with pytest.raises(TelemetrySchemaError):
            validate_record(self._record(spans=spans))

    def test_logger_helper_coerces_and_round_trips(self, tmp_path):
        from repro.obs import trace

        path = str(tmp_path / "t.jsonl")
        with trace.tracing() as tracer:
            with tracer.span("work"):
                pass
        with RunLogger(path, "flow") as logger:
            logger.span_summary(tracer.summary(),
                                wall_seconds=tracer.wall_seconds(),
                                coverage=tracer.coverage(),
                                trace_file="trace.json")
        (record,) = _read_records(path)
        validate_record(record)
        assert record["spans"]["work"]["count"] == 1
        assert isinstance(record["spans"]["work"]["count"], int)
        assert record["trace_file"] == "trace.json"

    def test_harness_emits_span_summary_when_tracing(self, litho32,
                                                     kernels32, dataset,
                                                     tmp_path):
        from repro.obs import trace

        config = GanOpcConfig(grid=32, generator_channels=(4, 8),
                              discriminator_channels=(4, 8), batch_size=2,
                              seed=7)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(1))
        pre = ILTGuidedPretrainer(generator, litho32, config,
                                  kernels=kernels32)
        with trace.tracing():
            pre.train(dataset, 2,
                      runtime=RunConfig(telemetry_dir=str(tmp_path)))
        records = _read_records(os.path.join(str(tmp_path),
                                             "pretrain.jsonl"))
        summaries = [r for r in records if r["event"] == "span_summary"]
        assert len(summaries) == 1
        spans = summaries[0]["spans"]
        assert "pretrain.step" in spans
        assert spans["pretrain.step"]["count"] == 2
        assert "litho.adjoint" in spans

    def test_no_span_summary_without_tracer(self, litho32, kernels32,
                                            dataset, tmp_path):
        config = GanOpcConfig(grid=32, generator_channels=(4, 8),
                              discriminator_channels=(4, 8), batch_size=2,
                              seed=7)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(1))
        pre = ILTGuidedPretrainer(generator, litho32, config,
                                  kernels=kernels32)
        pre.train(dataset, 1, runtime=RunConfig(telemetry_dir=str(tmp_path)))
        records = _read_records(os.path.join(str(tmp_path),
                                             "pretrain.jsonl"))
        assert all(r["event"] != "span_summary" for r in records)


class TestScriptedRun:
    ITERATIONS = 3

    def _run(self, litho32, kernels32, dataset, telemetry_dir):
        config = GanOpcConfig(grid=32, generator_channels=(4, 8),
                              discriminator_channels=(4, 8), batch_size=2,
                              seed=7)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(1))
        pre = ILTGuidedPretrainer(generator, litho32, config,
                                  kernels=kernels32)
        before = pre.engine.stats.snapshot()
        pre.train(dataset, self.ITERATIONS,
                  runtime=RunConfig(telemetry_dir=telemetry_dir))
        return pre.engine.stats.delta(before)

    def test_every_line_validates(self, litho32, kernels32, dataset,
                                  tmp_path):
        self._run(litho32, kernels32, dataset, str(tmp_path))
        records = _read_records(os.path.join(str(tmp_path),
                                             "pretrain.jsonl"))
        assert records, "no telemetry written"
        for record in records:
            validate_record(record)
            assert record["phase"] == "pretrain"
        events = [r["event"] for r in records]
        assert events[0] == "run_start"
        assert events[-1] == "run_end"
        assert events.count("iteration") == self.ITERATIONS

    def test_litho_counts_match_engine_invocations(self, litho32,
                                                   kernels32, dataset,
                                                   tmp_path):
        engine_delta = self._run(litho32, kernels32, dataset,
                                 str(tmp_path))
        records = _read_records(os.path.join(str(tmp_path),
                                             "pretrain.jsonl"))
        reported = {}
        for record in records:
            for key, value in (record.get("litho") or {}).items():
                reported[key] = reported.get(key, 0) + value
        # Telemetry deltas (iterations + run_end) must add up exactly to
        # what the engine instance executed during the run.
        for key in ("forward_calls", "forward_masks",
                    "gradient_calls", "gradient_masks"):
            assert reported[key] == engine_delta[key], key
        # Algorithm 2 performs exactly one adjoint evaluation per
        # iteration over the full mini-batch.
        assert engine_delta["gradient_calls"] == self.ITERATIONS
        assert engine_delta["gradient_masks"] == self.ITERATIONS * 2

    def test_iteration_records_carry_losses_and_timing(self, litho32,
                                                       kernels32, dataset,
                                                       tmp_path):
        self._run(litho32, kernels32, dataset, str(tmp_path))
        records = _read_records(os.path.join(str(tmp_path),
                                             "pretrain.jsonl"))
        iterations = [r for r in records if r["event"] == "iteration"]
        for index, record in enumerate(iterations):
            assert record["iteration"] == index
            assert "litho_error" in record["losses"]
            assert record["seconds"] >= 0.0
            assert "generator" in record["grad_norms"]


class TestGanTelemetry:
    def test_every_line_validates(self, dataset, tmp_path):
        config = GanOpcConfig(grid=32, generator_channels=(4, 8),
                              discriminator_channels=(4, 8), batch_size=2,
                              seed=7)
        generator = MaskGenerator(config.generator_channels,
                                  rng=np.random.default_rng(1))
        discriminator = PairDiscriminator(
            config.grid, config.discriminator_channels,
            rng=np.random.default_rng(2))
        GanOpcTrainer(generator, discriminator, config).train(
            dataset, 2, runtime=RunConfig(telemetry_dir=str(tmp_path)))

        records = _read_records(os.path.join(str(tmp_path), "gan.jsonl"))
        for record in records:
            validate_record(record)
            assert record["phase"] == "gan"
        iterations = [r for r in records if r["event"] == "iteration"]
        assert len(iterations) == 2
        assert set(iterations[0]["losses"]) == {
            "generator_loss", "discriminator_loss", "l2_to_reference"}
        assert set(iterations[0]["grad_norms"]) == {"generator",
                                                    "discriminator"}


class TestFlowTelemetry:
    def test_flow_record_validates(self, litho32, kernels32, dataset,
                                   tmp_path):
        path = str(tmp_path / "flow.jsonl")
        generator = MaskGenerator((4, 8), rng=np.random.default_rng(1))
        engine = LithoEngine.for_kernels(kernels32)
        flow = GanOpcFlow(generator, litho32,
                          ILTConfig(max_iterations=5), engine=engine,
                          logger=RunLogger(path, "flow"))
        flow.optimize(dataset.target(0))
        records = _read_records(path)
        assert len(records) == 1
        validate_record(records[0])
        record = records[0]
        assert record["event"] == "flow"
        assert record["refine_iterations"] >= 1
        assert record["litho"]["forward_calls"] >= 1

    def test_flow_record_counts_corner_stack_descent(self, litho32,
                                                     kernels32, dataset,
                                                     tmp_path):
        """A weighted process-window refinement descends a corner-stack
        engine, not the flow's nominal one; the ``flow`` record still
        counts one gradient mask per refinement iteration."""
        from repro.litho import ConditionSet
        path = str(tmp_path / "flow.jsonl")
        generator = MaskGenerator((4, 8), rng=np.random.default_rng(1))
        flow = GanOpcFlow(
            generator, litho32,
            ILTConfig(pw_objective="weighted", max_iterations=5,
                      patience=None),
            engine=LithoEngine.for_kernels(kernels32),
            logger=RunLogger(path, "flow"),
            conditions=ConditionSet.dose_corners(litho32.dose_variation))
        result = flow.optimize(dataset.target(0))
        (record,) = _read_records(path)
        assert result.ilt_result.iterations == 5
        assert record["litho"]["gradient_calls"] == 5
        assert record["litho"]["gradient_masks"] == 5


class TestWorkerSpanSummary:
    """Schema round-trip for the ISSUE 8 fleet-telemetry record types."""

    def _record(self, **extra):
        record = {"schema": SCHEMA_VERSION, "event": "worker_span_summary",
                  "phase": "flow", "ts": 1.0, "pid": 4242,
                  "spans": {"litho.forward": {"count": 8, "seconds": 0.4}}}
        record.update(extra)
        return record

    def test_valid_record_passes(self):
        validate_record(self._record())
        validate_record(self._record(tasks=8, busy_seconds=0.5,
                                     dropped_spans=0,
                                     litho={"forward_calls": 8}))

    @pytest.mark.parametrize("mutate", [
        lambda r: r.pop("pid"),
        lambda r: r.pop("spans"),
        lambda r: r.update(pid=1.5),
        lambda r: r.update(spans={"s": {"count": 1}}),
        lambda r: r.update(litho={"forward_calls": "nan"}),
        lambda r: r.update(stray=1),
    ])
    def test_invalid_record_rejected(self, mutate):
        record = self._record()
        mutate(record)
        with pytest.raises(TelemetrySchemaError):
            validate_record(record)

    def test_logger_helper_coerces_and_round_trips(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with RunLogger(path, "flow") as logger:
            logger.worker_span_summary(
                np.int64(4242),
                {"litho.forward": {"count": np.int64(8),
                                   "seconds": np.float64(0.4)}},
                tasks=8, busy_seconds=0.5, dropped_spans=0,
                litho={"forward_calls": 8.0})
        (record,) = _read_records(path)
        validate_record(record)
        assert record["pid"] == 4242
        assert type(record["pid"]) is int
        assert record["spans"]["litho.forward"] == {"count": 8,
                                                    "seconds": 0.4}
        assert record["litho"]["forward_calls"] == 8.0


class TestResourceSample:
    def _record(self, **extra):
        record = {"schema": SCHEMA_VERSION, "event": "resource_sample",
                  "phase": "monitor", "ts": 1.0, "pid": 4242,
                  "rss_bytes": 1048576.0, "cpu_seconds": 0.25}
        record.update(extra)
        return record

    def test_valid_record_passes(self):
        validate_record(self._record())
        validate_record(self._record(num_threads=3, cpu_utilization=0.8))

    @pytest.mark.parametrize("mutate", [
        lambda r: r.pop("pid"),
        lambda r: r.pop("rss_bytes"),
        lambda r: r.pop("cpu_seconds"),
        lambda r: r.update(num_threads=1.5),
        lambda r: r.update(rss_bytes="nan"),
        lambda r: r.update(stray=1),
    ])
    def test_invalid_record_rejected(self, mutate):
        record = self._record()
        mutate(record)
        with pytest.raises(TelemetrySchemaError):
            validate_record(record)

    def test_logger_helper_coerces_and_round_trips(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with RunLogger(path, "monitor") as logger:
            logger.resource_sample(np.int64(4242),
                                   rss_bytes=np.float64(1048576.0),
                                   cpu_seconds=np.float64(0.25),
                                   num_threads=3, cpu_utilization=0.8)
        (record,) = _read_records(path)
        validate_record(record)
        assert type(record["pid"]) is int
        assert record["rss_bytes"] == 1048576.0
        assert record["cpu_utilization"] == 0.8
