"""Fleet observability through the worker pool (ISSUE 8 tentpole).

End-to-end checks that a parallel run is exactly as observable as a
serial one: engine-counter deltas always ship and sum correctly,
spans merge into one pid-laned Chrome trace when the parent traces,
the heartbeat/watchdog path flags a deliberately stalled task, and
the progress callback fires per completed task.
"""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.litho import LithoConfig
from repro.obs import trace
from repro.parallel import WorkerPool
from repro.parallel.pool import worker_engine


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


def _hung_task(seconds):
    """Fault injection: silence this worker's heartbeat, then hang.

    Stopping the beat thread mid-task is what a truly hung worker
    looks like from the parent's side — the slot stays task-active
    while its timestamp goes stale.
    """
    from repro.parallel.pool import _WORKER_STATE
    heartbeat = _WORKER_STATE["heartbeat"]
    if heartbeat is not None:
        heartbeat._stop.set()
    time.sleep(seconds)
    return os.getpid()


@pytest.fixture(scope="module")
def litho():
    return LithoConfig.small(32)


class TestEngineDeltaShipping:
    def test_fleet_totals_count_worker_calls(self, litho):
        with WorkerPool(2, litho_config=litho, health=False) as pool:
            pool.map(_forward_task, [(i,) for i in range(6)])
            totals = pool.stats.fleet.engine_totals
        assert totals["forward_calls"] == 6
        assert totals["forward_masks"] == 6
        assert totals["forward_seconds"] > 0.0
        assert pool.stats.fleet.tasks == 6

    def test_per_pid_breakdown_sums_to_fleet(self, litho):
        with WorkerPool(2, litho_config=litho, health=False) as pool:
            pool.map(_forward_task, [(i,) for i in range(8)])
            fleet = pool.stats.fleet
        assert sum(e["forward_calls"] for e in fleet.pid_engine.values()) \
            == fleet.engine_totals["forward_calls"]

    def test_deltas_ship_without_tracing(self, litho):
        assert not trace.is_enabled()
        with WorkerPool(1, litho_config=litho, health=False) as pool:
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
            with WorkerPool(2, litho_config=litho, health=False) as pool:
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
            with WorkerPool(2, litho_config=litho, health=False) as pool:
                pool.map(_forward_task, [(i,) for i in range(6)])
                result = pool.stats.fleet.reconcile()
        finally:
            trace.disable()
        assert result["forward_calls"]["match"] is True
        assert result["forward_calls"]["stats"] == 6

    def test_span_cap_bounds_shipping(self, litho, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_SPAN_CAP", "1")
        trace.enable(trace.Tracer())
        try:
            with WorkerPool(1, litho_config=litho, health=False) as pool:
                pool.map(_forward_task, [(i,) for i in range(3)])
                fleet = pool.stats.fleet
        finally:
            trace.disable()
        assert fleet.dropped_spans > 0
        # The summary stays complete even though events were dropped.
        assert fleet.span_summary["litho.forward"]["count"] == 3


class TestHealth:
    def test_watchdog_flags_deliberately_stalled_task(self, litho):
        with WorkerPool(1, litho_config=litho, health=True,
                        stall_after=0.2, heartbeat_interval=0.05) as pool:
            pool.map(_hung_task, [(1.0,)])
            stalls = list(pool.stats.stalls)
        assert stalls, "watchdog missed the silent active task"
        assert stalls[0].gap_seconds >= 0.2
        # The same task is reported once, not once per scan.
        assert len({(s.pid, s.task_seq) for s in stalls}) == len(stalls)

    def test_healthy_fast_tasks_do_not_stall(self, litho):
        with WorkerPool(2, litho_config=litho, health=True,
                        stall_after=30.0) as pool:
            pool.map(_forward_task, [(i,) for i in range(4)])
            assert pool.stats.stalls == []

    def test_straggler_detection(self, litho):
        with WorkerPool(1, litho_config=litho, health=False) as pool:
            pool.map(_sleep_task,
                     [(0.01,), (0.01,), (0.01,), (0.01,), (0.25,)])
            stragglers = pool.stats.stragglers(k=3.0, min_tasks=4)
        assert len(stragglers) == 1
        assert stragglers[0][1] >= 0.25

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="no procfs")
    def test_resource_samples_land_in_pool_registry(self, litho):
        with WorkerPool(1, litho_config=litho, health=True,
                        heartbeat_interval=0.02) as pool:
            (pid,) = pool.map(_sleep_task, [(0.2,)])
            readings = dict(pool.sampler.latest)
        assert readings[pid]["rss_bytes"] > 0


class TestProgress:
    def test_callback_fires_per_task_in_completion_order(self, litho):
        ticks = []
        with WorkerPool(2, litho_config=litho, health=False) as pool:
            pool.map(_forward_task, [(i,) for i in range(5)],
                     progress=lambda *args: ticks.append(args))
        assert [t[0] for t in ticks] == [1, 2, 3, 4, 5]
        assert all(t[1] == 5 for t in ticks)
        pids = {t[2] for t in ticks}
        assert pids and all(pid != os.getpid() for pid in pids)
        assert all(t[3] >= 0.0 for t in ticks)

    def test_pool_gauges_track_completion(self, litho):
        with WorkerPool(1, litho_config=litho, health=False) as pool:
            pool.map(_forward_task, [(i,) for i in range(3)])
            stats = pool.stats
        assert stats.tasks == 3
        assert len(stats.task_records) == 3
        assert all(seconds >= 0.0 for _, seconds in stats.task_records)
