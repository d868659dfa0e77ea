"""Worker pool semantics: ordering, error surfacing, crash handling,
shared-memory lifetimes, and the task runner's inline case."""

import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.parallel import (SharedArray, TaskRunner, WorkerCrashError,
                            WorkerPool, WorkerTaskError, worker_state)


# Task functions must be module-level to be picklable.
def _square(x):
    return x * x


def _fail(x):
    raise ValueError(f"bad item {x}")


def _die():
    os._exit(3)


def _touch_then_sleep(path, seconds):
    open(path, "w").close()
    time.sleep(seconds)


def _read_state(offset):
    return worker_state()["base"] + offset


def _write_slot(index, spec, value):
    from repro.parallel import attach_array
    attach_array(spec)[index] = value
    return index


def _read_first(spec):
    from repro.parallel import attach_array
    return float(attach_array(spec)[0])


def _attachment_probe():
    """This worker's cached attachments and, where /proc exists, its
    mappings of unlinked shared-memory segments."""
    from repro.parallel.pool import _WORKER_STATE
    deleted = None
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as maps:
            deleted = sum("/psm_" in line and "(deleted)" in line
                          for line in maps)
    return len(_WORKER_STATE["arrays"]), deleted


class TestWorkerPool:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_map_preserves_submission_order(self):
        with WorkerPool(2) as pool:
            results = pool.map(_square, [(i,) for i in range(10)])
        assert results == [i * i for i in range(10)]

    def test_task_exception_surfaces_with_remote_traceback(self):
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerTaskError) as excinfo:
                pool.map(_fail, [(7,)])
        assert "ValueError" in str(excinfo.value)
        assert "bad item 7" in str(excinfo.value)
        assert "Traceback" in excinfo.value.remote_traceback

    def test_worker_crash_raises_instead_of_hanging(self):
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerCrashError):
                pool.map(_die, [() for _ in range(4)])

    def test_broadcast_state_reaches_workers(self):
        with WorkerPool(2, state={"base": 100}) as pool:
            results = pool.map(_read_state, [(i,) for i in range(4)])
        assert results == [100, 101, 102, 103]

    def test_tasks_write_shared_output(self):
        with SharedArray.create((6,), np.float64) as shared:
            with WorkerPool(2) as pool:
                pool.map(_write_slot,
                         [(i, shared.spec, float(10 * i)) for i in range(6)])
            np.testing.assert_array_equal(shared.array,
                                          [0.0, 10.0, 20.0, 30.0, 40.0, 50.0])

    def test_normal_exit_reaps_every_worker(self):
        with WorkerPool(2) as pool:
            for _ in range(5):
                pool.map(_square, [(i,) for i in range(8)])
            pids = list(pool._executor._processes)
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_error_exit_does_not_wait_for_a_running_task(self, tmp_path):
        flag = tmp_path / "started"
        with pytest.raises(RuntimeError, match="stop"):
            with WorkerPool(1) as pool:
                executor = pool._ensure_executor()
                executor.submit(_touch_then_sleep, str(flag), 2.0)
                manager = executor._executor_manager_thread
                deadline = time.monotonic() + 60.0
                while not flag.exists():
                    assert time.monotonic() < deadline, "task never started"
                    time.sleep(0.01)
                raised = time.monotonic()
                raise RuntimeError("stop")
        assert time.monotonic() - raised < 1.0
        # The worker exits once its task is done; the executor's manager
        # thread joins it.
        manager.join(timeout=60.0)
        assert not manager.is_alive()

    def test_stats_accounting(self):
        with WorkerPool(2) as pool:
            pool.map(_square, [(i,) for i in range(8)])
            stats = pool.stats
        assert stats.tasks == 8
        assert stats.workers == 2
        assert stats.wall_seconds > 0.0
        assert sum(stats.task_counts.values()) == 8
        assert stats.total_busy_seconds >= 0.0
        table = stats.format_table()
        assert "worker pid" in table
        assert "total" in table


class TestAttachmentLifetime:
    def test_worker_releases_segments_of_earlier_maps(self):
        with WorkerPool(1) as pool:
            for value in range(5):
                with SharedArray.from_array(
                        np.full(4096, float(value))) as shared:
                    assert pool.map(_read_first, [(shared.spec,)]) == [value]
            [(cached, deleted)] = pool.map(_attachment_probe, [()])
        assert cached <= 1
        if deleted is not None:
            assert deleted <= 1


class TestTaskRunner:
    def test_pooled_failure_unlinks_every_segment(self):
        with pytest.raises(WorkerTaskError, match="bad item 1"):
            with TaskRunner(workers=2) as runner:
                names = [runner.share(np.zeros(8)).name,
                         runner.share(np.ones((2, 3))).name]
                runner.map(_fail, [(1,)])
        assert runner.pool._executor is None  # the pool it started is down
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_given_pool_outlives_the_run(self):
        with WorkerPool(1) as pool:
            with TaskRunner(workers=1, pool=pool) as runner:
                assert runner.workers == 1
                assert runner.map(_square, [(3,)]) == [9]
            assert pool.map(_square, [(4,)]) == [16]
            assert pool.stats.tasks == 2

    def test_inline_failure_propagates_and_restores_state(self):
        before = worker_state()
        with TaskRunner(state={"base": 100}) as runner:
            assert runner.map(_read_state, [(1,), (2,)]) == [101, 102]
            with pytest.raises(ValueError, match="bad item 3"):
                runner.map(_fail, [(3,)])
        assert worker_state() is before
        assert runner.pool is None and runner.pool_stats is None
        assert runner.workers == 1

    def test_inline_progress_once_per_item_in_order(self):
        calls = []
        with TaskRunner() as runner:
            runner.map(_square, [(i,) for i in range(4)],
                       progress=lambda *report: calls.append(report))
        assert [call[:3] for call in calls] == [
            (done, 4, os.getpid()) for done in range(1, 5)]
        assert all(call[3] > 0 for call in calls)

    def test_inline_run_never_enters_pool_map(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an inline run entered WorkerPool.map")

        monkeypatch.setattr(WorkerPool, "map", refuse)
        output = np.zeros(3)
        with TaskRunner(workers=1) as runner:
            handle = runner.share(output)
            assert handle is output  # inline: no shared memory
            runner.map(_write_slot,
                       [(i, handle, float(i + 1)) for i in range(3)])
            np.testing.assert_array_equal(runner.collect(handle),
                                          [1.0, 2.0, 3.0])
