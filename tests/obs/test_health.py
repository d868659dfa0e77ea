"""Heartbeat board, stall watchdog, and /proc resource sampling.

The watchdog tests drive :meth:`Watchdog.scan_once` with an explicit
``now`` instead of sleeping past the threshold, so stall detection is
tested deterministically; the end-to-end slow-task path is covered in
``tests/parallel/test_pool_telemetry.py``.
"""

import os
import time

import pytest

from repro.obs.health import (HeartbeatBoard, ResourceSampler, StallEvent,
                              Watchdog, WorkerHeartbeat, proc_available,
                              read_proc_sample)


@pytest.fixture()
def board():
    board = HeartbeatBoard(capacity=4, create=True)
    yield board
    board.close()
    board.unlink()


class TestHeartbeatBoard:
    def test_claim_and_read(self, board):
        slot = board.claim(pid=1234)
        beats = board.read()
        assert len(beats) == 1
        assert beats[0].pid == 1234
        assert beats[0].task_seq == 0
        assert beats[0].task_active is False
        assert beats[0].age() < 5.0
        board.clear(slot)
        assert board.read() == []

    def test_claims_do_not_collide(self, board):
        slots = {board.claim(pid=pid) for pid in (10, 11, 12, 13)}
        assert len(slots) == 4
        assert sorted(b.pid for b in board.read()) == [10, 11, 12, 13]

    def test_full_board_raises(self, board):
        for pid in range(1, 5):
            board.claim(pid=pid)
        with pytest.raises(RuntimeError, match="full"):
            board.claim(pid=99)

    def test_beat_updates_slot(self, board):
        slot = board.claim(pid=77)
        board.beat(slot, 77, task_seq=3, task_active=True)
        (beat,) = board.read()
        assert beat.task_seq == 3 and beat.task_active is True

    def test_attach_by_name_sees_parent_writes(self, board):
        attached = HeartbeatBoard(name=board.name, capacity=board.capacity)
        try:
            slot = attached.claim(pid=555)
            attached.beat(slot, 555, task_seq=2, task_active=True)
            (beat,) = board.read()
            assert beat.pid == 555 and beat.task_seq == 2
            assert attached.owner is False
            with pytest.raises(RuntimeError):
                attached.unlink()
        finally:
            attached.close()


class TestWorkerHeartbeat:
    def test_task_markers_and_daemon_beat(self, board):
        heartbeat = WorkerHeartbeat(board.name, board.capacity,
                                    interval=0.01)
        try:
            heartbeat.task_started()
            (beat,) = board.read()
            assert beat.task_seq == 1 and beat.task_active is True
            first_ts = beat.beat_ts
            deadline = time.time() + 2.0
            while time.time() < deadline:
                (beat,) = board.read()
                if beat.beat_ts > first_ts:  # daemon thread stamped
                    break
                time.sleep(0.01)
            assert beat.beat_ts > first_ts
            heartbeat.task_finished()
            (beat,) = board.read()
            assert beat.task_active is False
        finally:
            heartbeat.stop()


class TestWatchdog:
    def test_flags_silent_active_task_once(self, board):
        slot = board.claim(pid=42)
        board.beat(slot, 42, task_seq=1, task_active=True)
        seen = []
        watchdog = Watchdog(board, stall_after=5.0, on_stall=seen.append)
        assert watchdog.scan_once(now=time.time() + 1.0) == []
        events = watchdog.scan_once(now=time.time() + 10.0)
        assert len(events) == 1
        assert events[0].pid == 42 and events[0].task_seq == 1
        assert events[0].gap_seconds > 5.0
        assert seen == events
        # Same (pid, task_seq) is reported once, not every scan.
        assert watchdog.scan_once(now=time.time() + 20.0) == []
        # A new task by the same worker can stall again.
        board.beat(slot, 42, task_seq=2, task_active=True)
        assert len(watchdog.scan_once(now=time.time() + 30.0)) == 1

    def test_inactive_and_fresh_tasks_not_flagged(self, board):
        slot = board.claim(pid=7)
        board.beat(slot, 7, task_seq=1, task_active=False)
        watchdog = Watchdog(board, stall_after=0.01)
        assert watchdog.scan_once(now=time.time() + 60.0) == []
        board.beat(slot, 7, task_seq=2, task_active=True)
        assert watchdog.scan_once() == []  # just beat: gap ~ 0

    def test_thread_start_stop_idempotent(self, board):
        watchdog = Watchdog(board, stall_after=5.0, interval=0.01)
        watchdog.start()
        watchdog.start()
        time.sleep(0.05)
        watchdog.stop()
        watchdog.stop()
        assert watchdog._thread is None


@pytest.mark.skipif(not proc_available(), reason="no procfs")
class TestResourceSampling:
    def test_read_proc_sample_self(self):
        sample = read_proc_sample(os.getpid())
        assert sample is not None
        assert sample.rss_bytes > 1024 * 1024  # a python process > 1 MB
        assert sample.cpu_seconds >= 0.0
        assert sample.num_threads >= 1

    def test_dead_pid_returns_none(self):
        assert read_proc_sample(2 ** 22 + 1) is None

    def test_sampler_records_gauges_and_histograms(self):
        """The sampler keeps the latest reading per pid (rendered as
        per-pid gauges by ``repro.obs.export``)."""
        sampler = ResourceSampler()
        pid = os.getpid()
        samples = sampler.sample([pid])
        assert len(samples) == 1
        assert sampler.latest[pid]["rss_bytes"] > 0
        assert sampler.latest[pid]["threads"] >= 1
        assert "cpu_utilization" not in sampler.latest[pid]
        # Second sample derives utilization from the CPU delta.
        sampler.sample([pid])
        assert sampler.latest[pid]["cpu_utilization"] >= 0.0
        assert set(sampler.latest) == {pid}

    def test_watchdog_drives_sampler(self, board):
        board.claim(pid=os.getpid())
        sampler = ResourceSampler()
        watchdog = Watchdog(board, stall_after=60.0, sampler=sampler)
        watchdog.scan_once()
        assert sampler.latest[os.getpid()]["rss_bytes"] > 0


def test_stall_event_fields():
    event = StallEvent(pid=1, task_seq=2, gap_seconds=3.5)
    assert (event.pid, event.task_seq, event.gap_seconds) == (1, 2, 3.5)
