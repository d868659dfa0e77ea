"""Fleet observability through the worker pool (ISSUE 8 tentpole).

End-to-end checks that a parallel run is exactly as observable as a
serial one: engine-counter deltas always ship and sum correctly,
spans merge into one pid-laned Chrome trace when the parent traces,
stragglers are found from the task times, and the progress callback
fires per completed task.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.litho import LithoConfig
from repro.obs import aggregate, trace
from repro.parallel import WorkerPool
from repro.parallel.pool import PoolStats, worker_engine
from repro.runtime import RunLogger, validate_record


def _forward_task(seed):
    """Run one engine forward in the worker; returns the aerial sum."""
    engine = worker_engine()
    rng = np.random.default_rng(seed)
    mask = (rng.random((engine.kernels.grid,) * 2) > 0.5).astype(float)
    return float(engine.aerial(mask).sum())


#: fork-inherited barrier of :func:`_paired_forward_task` (set per test)
_start_barrier = None


def _paired_forward_task(seed):
    """:func:`_forward_task` whose first two calls (seeds 0 and 1) wait
    on :data:`_start_barrier`.  A worker blocked in one cannot take the
    other, so two distinct workers each run one; if they cannot meet,
    the wait times out and the task fails."""
    if seed < 2:
        _start_barrier.wait(timeout=30.0)
    return _forward_task(seed)


def _sleep_task(seconds):
    time.sleep(seconds)
    return os.getpid()


@pytest.fixture(scope="module")
def litho():
    return LithoConfig.small(32)


class TestEngineDeltaShipping:
    def test_fleet_totals_count_worker_calls(self, litho):
        with WorkerPool(2, litho_config=litho) as pool:
            pool.map(_forward_task, [(i,) for i in range(6)])
            totals = pool.stats.fleet.engine_totals
        assert totals["forward_calls"] == 6
        assert totals["forward_masks"] == 6
        assert totals["forward_seconds"] > 0.0
        assert pool.stats.fleet.tasks == 6

    def test_per_pid_breakdown_sums_to_fleet(self, litho):
        with WorkerPool(2, litho_config=litho) as pool:
            pool.map(_forward_task, [(i,) for i in range(8)])
            fleet = pool.stats.fleet
        assert sum(e["forward_calls"] for e in fleet.pid_engine.values()) \
            == fleet.engine_totals["forward_calls"]

    def test_deltas_ship_without_tracing(self, litho):
        assert not trace.is_enabled()
        with WorkerPool(1, litho_config=litho) as pool:
            pool.map(_forward_task, [(0,)])
            fleet = pool.stats.fleet
        assert fleet.engine_totals["forward_calls"] == 1
        assert fleet.span_summary == {}  # spans did not ship

    def test_corner_stack_descent_counts_in_fleet_totals(self, litho):
        """``parallel_ilt`` tasks that descend a process-window corner
        stack ship that engine's gradients in their litho deltas."""
        from repro.ilt import ILTConfig
        from repro.litho import ConditionSet
        from repro.parallel import parallel_ilt
        targets = np.zeros((2, 32, 32))
        targets[0, 8:24, 10:22] = 1.0
        targets[1, 12:20, 4:28] = 1.0
        result = parallel_ilt(
            targets, litho,
            ILTConfig(pw_objective="weighted", max_iterations=5,
                      patience=None),
            workers=2,
            conditions=ConditionSet.dose_corners(litho.dose_variation))
        assert [r.iterations for r in result.results] == [5, 5]
        totals = result.pool_stats.fleet.engine_totals
        assert totals["gradient_calls"] == 10
        assert totals["gradient_masks"] == 10


class TestMergedTrace:
    def test_two_worker_chrome_round_trip(self, litho, tmp_path,
                                          monkeypatch):
        """A tiled-style 2-worker run produces one Perfetto-loadable
        trace with litho spans from every worker pid, nested in time
        under the parent's ``parallel.map`` span."""
        # Both workers must take a task; the barrier makes that certain.
        monkeypatch.setitem(globals(), "_start_barrier",
                            multiprocessing.Barrier(2))
        tracer = trace.enable(trace.Tracer())
        try:
            with WorkerPool(2, litho_config=litho) as pool:
                pool.map(_paired_forward_task, [(i,) for i in range(8)])
        finally:
            trace.disable()
        path = tracer.write_chrome_trace(str(tmp_path / "trace.json"))
        chrome = json.load(open(path, encoding="utf-8"))
        events = chrome["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        worker_pids = {e["pid"] for e in complete} - {os.getpid()}
        assert len(worker_pids) == 2

        # pid/tid lane correctness: every worker event keeps its own
        # pid, and the parent's events keep the parent pid.
        litho_spans = [e for e in complete if e["name"] == "litho.forward"]
        assert len(litho_spans) == 8
        assert {e["pid"] for e in litho_spans} == worker_pids
        parent_spans = [e for e in complete if e["name"] == "parallel.map"]
        assert [e["pid"] for e in parent_spans] == [os.getpid()]

        # Worker lanes are labeled via process_name metadata events.
        meta = [e for e in events if e.get("ph") == "M"]
        assert {e["pid"] for e in meta} == worker_pids

        # Time nesting: worker spans rebased onto the parent clock fall
        # inside the parent's map span.
        (map_span,) = parent_spans
        for event in litho_spans:
            assert event["ts"] >= map_span["ts"] - 1e3  # 1ms clock slack
            assert (event["ts"] + event["dur"]
                    <= map_span["ts"] + map_span["dur"] + 1e3)

    def test_fleet_reconciles_with_span_counts(self, litho):
        trace.enable(trace.Tracer())
        try:
            with WorkerPool(2, litho_config=litho) as pool:
                pool.map(_forward_task, [(i,) for i in range(6)])
                fleet = pool.stats.fleet
                result = aggregate.reconcile(fleet.engine_totals,
                                             fleet.merged_summary())
        finally:
            trace.disable()
        assert result["forward_calls"]["match"] is True
        assert result["forward_calls"]["stats"] == 6

    def test_span_cap_bounds_shipping(self, litho, monkeypatch):
        # Workers fork at the pool's first map, after the patch.
        monkeypatch.setattr(aggregate, "SPAN_CAP", 1)
        trace.enable(trace.Tracer())
        try:
            with WorkerPool(1, litho_config=litho) as pool:
                pool.map(_forward_task, [(i,) for i in range(3)])
                fleet = pool.stats.fleet
        finally:
            trace.disable()
        assert fleet.dropped_spans > 0
        # The summary stays complete even though events were dropped.
        assert fleet.span_summary["litho.forward"]["count"] == 3


class TestStragglers:
    def test_straggler_detection(self, litho):
        with WorkerPool(1, litho_config=litho) as pool:
            pool.map(_sleep_task,
                     [(0.01,), (0.01,), (0.01,), (0.01,), (0.25,)])
            stragglers = pool.stats.stragglers(k=3.0, min_tasks=4)
        assert len(stragglers) == 1
        assert stragglers[0][1] >= 0.25

    @staticmethod
    def _stats():
        """Two workers whose first tasks carry a slow engine warm-up,
        and one slow later task on worker 1."""
        stats = PoolStats(workers=2)
        for pid, seconds in [(1, 0.5), (2, 0.4), (1, 0.01), (2, 0.01),
                             (1, 0.012), (2, 0.011), (1, 0.2), (2, 0.01)]:
            stats.record(pid, seconds)
        return stats

    def test_first_task_of_each_worker_is_warm_up(self):
        stats = self._stats()
        # The median is over the six later tasks only.
        assert stats.median_task_seconds() == pytest.approx(0.0105)
        assert stats.stragglers() == [(1, 0.2)]
        assert "slow:1" in stats.format_table().splitlines()[1]
        assert "slow" not in stats.format_table().splitlines()[2]

    def test_log_to_writes_stragglers_and_one_summary_per_worker(
            self, tmp_path):
        stats = self._stats()
        path = str(tmp_path / "quality.jsonl")
        with RunLogger(path, "flow") as logger:
            stats.log_to(logger)
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        for record in records:
            validate_record(record)
        (anomaly,) = [r for r in records if r["event"] == "anomaly"]
        assert (anomaly["kind"], anomaly["pid"], anomaly["seconds"]) == \
            ("straggler", 1, 0.2)
        assert anomaly["median_seconds"] == stats.median_task_seconds()
        summaries = [r for r in records
                     if r["event"] == "worker_span_summary"]
        assert [(r["pid"], r["tasks"]) for r in summaries] == [(1, 4),
                                                               (2, 4)]


class TestProgress:
    def test_callback_fires_per_task_in_completion_order(self, litho):
        ticks = []
        with WorkerPool(2, litho_config=litho) as pool:
            pool.map(_forward_task, [(i,) for i in range(5)],
                     progress=lambda *args: ticks.append(args))
        assert [t[0] for t in ticks] == [1, 2, 3, 4, 5]
        assert all(t[1] == 5 for t in ticks)
        pids = {t[2] for t in ticks}
        assert pids and all(pid != os.getpid() for pid in pids)
        assert all(t[3] >= 0.0 for t in ticks)

    def test_pool_gauges_track_completion(self, litho):
        with WorkerPool(1, litho_config=litho) as pool:
            pool.map(_forward_task, [(i,) for i in range(3)])
            stats = pool.stats
        assert stats.tasks == 3
        assert len(stats.task_records) == 3
        assert all(seconds >= 0.0 for _, seconds in stats.task_records)
