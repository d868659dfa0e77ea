"""Span tracer tests: nesting, export round-trips, enable/disable."""

import json
import os
import threading

from repro.obs import trace
from repro.obs.trace import Tracer, format_span_table


class TestDisabled:
    def test_span_returns_shared_null_singleton(self):
        assert trace.active() is None
        assert trace.span("anything") is trace._NULL_SPAN
        assert trace.span("other", key=1) is trace._NULL_SPAN

    def test_null_span_is_a_working_context_manager(self):
        with trace.span("noop") as span:
            assert span is trace._NULL_SPAN

    def test_null_span_does_not_swallow_exceptions(self):
        try:
            with trace.span("noop"):
                raise ValueError("boom")
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("exception was swallowed")


class TestNesting:
    def test_depths_follow_lexical_nesting(self):
        with trace.tracing() as tracer:
            with trace.span("outer"):
                with trace.span("inner"):
                    with trace.span("innermost"):
                        pass
                with trace.span("sibling"):
                    pass
        depths = {s.name: s.depth for s in tracer.spans()}
        assert depths == {"outer": 0, "inner": 1, "innermost": 2,
                          "sibling": 1}

    def test_children_finish_before_parents(self):
        with trace.tracing() as tracer:
            with trace.span("parent"):
                with trace.span("child"):
                    pass
        names = [s.name for s in tracer.spans()]
        assert names == ["child", "parent"]

    def test_parent_contains_child_interval(self):
        with trace.tracing() as tracer:
            with trace.span("parent"):
                with trace.span("child"):
                    pass
        spans = {s.name: s for s in tracer.spans()}
        parent, child = spans["parent"], spans["child"]
        assert parent.start <= child.start
        assert child.end <= parent.end + 1e-9

    def test_args_recorded(self):
        with trace.tracing() as tracer:
            with trace.span("step", iteration=3, batch=8):
                pass
        (span,) = tracer.spans()
        assert span.args == {"iteration": 3, "batch": 8}

    def test_span_recorded_even_when_body_raises(self):
        with trace.tracing() as tracer:
            try:
                with trace.span("failing"):
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
        assert [s.name for s in tracer.spans()] == ["failing"]

    def test_summary_aggregates_counts_and_seconds(self):
        with trace.tracing() as tracer:
            for _ in range(3):
                with trace.span("repeated"):
                    pass
            with trace.span("once"):
                pass
        summary = tracer.summary()
        assert summary["repeated"]["count"] == 3
        assert summary["once"]["count"] == 1
        assert summary["repeated"]["seconds"] >= 0.0


class TestCoverage:
    def test_top_level_seconds_counts_only_depth_zero(self):
        with trace.tracing() as tracer:
            with trace.span("top"):
                with trace.span("nested"):
                    pass
        spans = {s.name: s for s in tracer.spans()}
        assert tracer.top_level_seconds() == spans["top"].duration

    def test_coverage_fraction_in_unit_interval(self):
        with trace.tracing() as tracer:
            with trace.span("top"):
                pass
            coverage = tracer.coverage()
        assert 0.0 <= coverage <= 1.0

    def test_coverage_with_explicit_wall(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        duration = tracer.spans()[0].duration
        assert abs(tracer.coverage(wall_seconds=duration * 2) - 0.5) < 1e-12


class TestChromeExport:
    def test_round_trip_is_valid_chrome_trace(self, tmp_path):
        with trace.tracing() as tracer:
            with trace.span("outer", clip="M1"):
                with trace.span("inner"):
                    pass
        path = tracer.write_chrome_trace(str(tmp_path / "trace.json"))
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["pid"] == os.getpid()
            assert event["dur"] >= 0.0
        outer = next(e for e in events if e["name"] == "outer")
        assert outer["args"] == {"clip": "M1"}

    def test_microsecond_units(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        span = tracer.spans()[0]
        event = tracer.to_chrome()["traceEvents"][0]
        assert event["ts"] == span.start * 1e6
        assert event["dur"] == span.duration * 1e6


class TestJsonlStream:
    """Spans as ``span`` records in a run's stream."""

    def test_spans_streamed_as_strict_json_lines(self, tmp_path):
        from repro.runtime import RunLogger, validate_record

        path = str(tmp_path / "quality.jsonl")
        with RunLogger(path, "flow") as logger:
            with trace.tracing(logger=logger) as tracer:
                with trace.span("a", n=1):
                    with trace.span("a.inner"):
                        pass
                with trace.span("b"):
                    pass
        with open(path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        for line in lines:
            validate_record(line)
        assert [line["name"] for line in lines] == ["a.inner", "a", "b"]
        assert {line["event"] for line in lines} == {"span"}
        assert lines[1]["args"] == {"n": 1}
        assert [line["depth"] for line in lines] == [1, 0, 0]
        assert set(lines[1]) == {"schema", "event", "phase", "ts", "name",
                                 "start", "duration", "tid", "depth",
                                 "args"}
        assert tracer.spans()[1].duration == lines[1]["duration"]
        assert tracer.spans()[1].start == lines[1]["start"]


class TestThreads:
    def test_threads_nest_independently(self):
        barrier = threading.Barrier(2)

        def work():
            barrier.wait()
            with trace.span("thread_top"):
                with trace.span("thread_inner"):
                    pass

        with trace.tracing() as tracer:
            threads = [threading.Thread(target=work) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        tops = [s for s in tracer.spans() if s.name == "thread_top"]
        inners = [s for s in tracer.spans() if s.name == "thread_inner"]
        assert len(tops) == len(inners) == 2
        # Each thread starts its own stack: depth 0 outer, depth 1 inner,
        # regardless of interleaving.
        assert {s.depth for s in tops} == {0}
        assert {s.depth for s in inners} == {1}
        assert len({s.tid for s in tops}) == 2


class TestEnableDisable:
    def test_enable_installs_and_disable_returns_tracer(self):
        tracer = trace.enable()
        assert trace.active() is tracer
        assert trace.is_enabled()
        with trace.span("live"):
            pass
        returned = trace.disable()
        assert returned is tracer
        assert trace.active() is None
        assert [s.name for s in tracer.spans()] == ["live"]

    def test_tracing_restores_previous_tracer(self):
        outer = trace.enable()
        try:
            with trace.tracing() as inner:
                assert trace.active() is inner
            assert trace.active() is outer
        finally:
            trace.disable()


class TestSpanTable:
    def test_table_lists_spans_sorted_by_total_time(self):
        summary = {"fast": {"count": 2, "seconds": 0.001},
                   "slow": {"count": 1, "seconds": 0.5}}
        table = format_span_table(summary)
        lines = table.splitlines()
        assert "span" in lines[0] and "calls" in lines[0]
        assert lines[2].startswith("slow")
        assert lines[3].startswith("fast")

    def test_percentages_use_wall_when_given(self):
        summary = {"half": {"count": 1, "seconds": 0.5}}
        table = format_span_table(summary, wall_seconds=1.0)
        assert "50.0%" in table
