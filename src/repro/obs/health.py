"""Fleet health: heartbeats, stall watchdog, /proc resource sampling.

Three cooperating pieces, all stdlib-only:

* :class:`HeartbeatBoard` — a tiny POSIX shared-memory table of
  ``(pid, beat wall-clock, task sequence, task active)`` slots.  The
  pool parent creates it; each worker claims one slot at startup and a
  daemon thread stamps it every ``interval`` seconds, plus an
  immediate stamp at task start/finish.  No locks: each slot has one
  writer, and readers tolerate a torn read (the next beat fixes it).
* :class:`Watchdog` — a parent-side daemon thread that scans the
  board while a ``map`` is in flight and reports any worker whose
  *active* task has not beaten for ``stall_after`` seconds.  One
  report per (pid, task sequence): a stuck task is flagged once, not
  every scan.  Straggler detection (tasks > k×median) is post-hoc
  from per-task durations — see ``PoolStats.stragglers``.
* :class:`ResourceSampler` — reads ``/proc/<pid>/statm`` (RSS) and
  ``/proc/<pid>/stat`` (utime+stime, thread count) for each live
  worker and keeps the latest reading per pid in
  :attr:`ResourceSampler.latest` (what ``repro monitor`` exports and
  logs).  A no-op on platforms without procfs (:func:`proc_available`).

Worker attachment to the board is excluded from the multiprocessing
resource tracker (the bpo-38119 rule, same as ``repro.parallel.shm``):
only the creating parent unlinks.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional

_SLOT_FIELDS = 4  # pid, beat_ts (wall clock), task_seq, task_active
_FIELD_BYTES = 8


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach without resource-tracker registration (bpo-38119)."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass
class WorkerBeat:
    """Decoded board slot for one live worker."""

    pid: int
    beat_ts: float
    task_seq: int
    task_active: bool

    def age(self, now: Optional[float] = None) -> float:
        return (time.time() if now is None else now) - self.beat_ts


class HeartbeatBoard:
    """Fixed-capacity shared-memory heartbeat table.

    The parent constructs with ``create=True`` and later
    :meth:`unlink`\\ s; workers attach by name and :meth:`claim` a
    slot.  Claiming probes from ``pid % capacity`` and verifies the
    written pid survives a short settle, which resolves the (already
    unlikely — pids differ) case of two workers racing for one slot.
    """

    def __init__(self, name: Optional[str] = None, capacity: int = 16,
                 create: bool = False):
        self.capacity = int(capacity)
        nbytes = self.capacity * _SLOT_FIELDS * _FIELD_BYTES
        if create:
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self.owner = True
        else:
            if name is None:
                raise ValueError("attaching requires the board name")
            self._shm = _attach_untracked(name)
            self.owner = False
        self.name = self._shm.name
        self._table = memoryview(self._shm.buf)[:nbytes].cast("d")
        if create:
            for i in range(self.capacity * _SLOT_FIELDS):
                self._table[i] = 0.0

    # -- worker side ----------------------------------------------------
    def claim(self, pid: Optional[int] = None) -> int:
        """Claim a free slot for ``pid``; returns the slot index."""
        pid = os.getpid() if pid is None else pid
        start = pid % self.capacity
        for probe in range(self.capacity):
            slot = (start + probe) % self.capacity
            base = slot * _SLOT_FIELDS
            current = int(self._table[base])
            if current not in (0, pid):
                continue
            self._table[base] = float(pid)
            time.sleep(0.002)  # settle: let a racing claimer overwrite
            if int(self._table[base]) == pid:
                self.beat(slot, pid, task_seq=0, task_active=False)
                return slot
        raise RuntimeError(f"heartbeat board full ({self.capacity} slots)")

    def beat(self, slot: int, pid: int, task_seq: int,
             task_active: bool) -> None:
        base = slot * _SLOT_FIELDS
        self._table[base] = float(pid)
        self._table[base + 2] = float(task_seq)
        self._table[base + 3] = 1.0 if task_active else 0.0
        # Timestamp last: a reader that sees the fresh ts sees the rest.
        self._table[base + 1] = time.time()

    def clear(self, slot: int) -> None:
        base = slot * _SLOT_FIELDS
        for i in range(_SLOT_FIELDS):
            self._table[base + i] = 0.0

    # -- parent side ----------------------------------------------------
    def read(self) -> List[WorkerBeat]:
        """Decode every claimed slot."""
        beats = []
        for slot in range(self.capacity):
            base = slot * _SLOT_FIELDS
            pid = int(self._table[base])
            if pid <= 0:
                continue
            beats.append(WorkerBeat(
                pid=pid, beat_ts=float(self._table[base + 1]),
                task_seq=int(self._table[base + 2]),
                task_active=bool(self._table[base + 3])))
        return beats

    def close(self) -> None:
        self._table.release()
        self._shm.close()

    def unlink(self) -> None:
        if not self.owner:
            raise RuntimeError("only the creating process may unlink")
        self._shm.unlink()


class WorkerHeartbeat:
    """Worker-side beat source: one claimed slot plus a daemon thread."""

    def __init__(self, board_name: str, capacity: int,
                 interval: float = 0.25):
        self.board = HeartbeatBoard(name=board_name, capacity=capacity)
        self.pid = os.getpid()
        self.slot = self.board.claim(self.pid)
        self.interval = float(interval)
        self.task_seq = 0
        self.task_active = False
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-heartbeat", daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.board.beat(self.slot, self.pid,
                                self.task_seq, self.task_active)
            except Exception:  # pragma: no cover - board unlinked mid-run
                return

    def task_started(self) -> None:
        self.task_seq += 1
        self.task_active = True
        self.board.beat(self.slot, self.pid, self.task_seq, True)

    def task_finished(self) -> None:
        self.task_active = False
        self.board.beat(self.slot, self.pid, self.task_seq, False)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)
        self.board.close()


@dataclass
class StallEvent:
    """One watchdog report: an active task silent past the threshold."""

    pid: int
    task_seq: int
    gap_seconds: float


class Watchdog:
    """Parent-side scanner flagging silent active tasks on the board.

    ``on_stall`` is called (from the watchdog thread) at most once per
    (pid, task_seq).  A beating-but-slow task is *not* a stall — that
    is a straggler, judged post-hoc against the median task time.
    """

    def __init__(self, board: HeartbeatBoard, stall_after: float = 5.0,
                 interval: float = 0.25,
                 on_stall: Optional[Callable[[StallEvent], None]] = None,
                 sampler: Optional["ResourceSampler"] = None):
        self.board = board
        self.stall_after = float(stall_after)
        self.interval = float(interval)
        self.on_stall = on_stall
        self.sampler = sampler
        self._reported: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def scan_once(self, now: Optional[float] = None) -> List[StallEvent]:
        """One scan pass; also drives the resource sampler if present."""
        now = time.time() if now is None else now
        beats = self.board.read()
        if self.sampler is not None:
            self.sampler.sample([beat.pid for beat in beats])
        events = []
        for beat in beats:
            if not beat.task_active:
                continue
            gap = beat.age(now)
            if gap < self.stall_after:
                continue
            if self._reported.get(beat.pid) == beat.task_seq:
                continue
            self._reported[beat.pid] = beat.task_seq
            event = StallEvent(pid=beat.pid, task_seq=beat.task_seq,
                               gap_seconds=gap)
            events.append(event)
            if self.on_stall is not None:
                self.on_stall(event)
        return events

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.scan_once()
            except Exception:  # pragma: no cover - board torn down
                return

    def start(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-watchdog", daemon=True)
            self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None


# ----------------------------------------------------------------------
# /proc resource sampling
# ----------------------------------------------------------------------
@dataclass
class ResourceSample:
    """One /proc reading for one process."""

    pid: int
    rss_bytes: float
    cpu_seconds: float
    num_threads: int


def proc_available() -> bool:
    """Whether per-process procfs files exist on this platform."""
    return os.path.exists("/proc/self/statm")


def read_proc_sample(pid: int) -> Optional[ResourceSample]:
    """RSS / cumulative CPU / thread count for ``pid`` (None if gone)."""
    try:
        with open(f"/proc/{pid}/statm", "r", encoding="ascii") as fh:
            rss_pages = int(fh.read().split()[1])
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
            stat = fh.read()
        # Fields after the parenthesised comm (which may contain spaces).
        fields = stat[stat.rindex(")") + 2:].split()
        # stat(5): fields 14/15 are utime/stime; here offset by the 3
        # leading fields consumed (pid, comm, state) -> indices 11/12.
        ticks = int(fields[11]) + int(fields[12])
        num_threads = int(fields[17])
    except (OSError, ValueError, IndexError):
        return None
    page = os.sysconf("SC_PAGE_SIZE")
    hz = os.sysconf("SC_CLK_TCK")
    return ResourceSample(pid=pid, rss_bytes=float(rss_pages * page),
                          cpu_seconds=ticks / float(hz),
                          num_threads=num_threads)


class ResourceSampler:
    """Keeps the latest /proc reading of each worker.

    :attr:`latest` maps pid to ``{"rss_bytes", "cpu_seconds",
    "threads"}`` plus, from a worker's second reading on,
    ``"cpu_utilization"``: the CPU-seconds delta over the wall delta
    between its last two readings.  Each reading replaces the pid's
    dict whole, so a reader on another thread never sees half of one.
    """

    def __init__(self):
        self.latest: Dict[int, Dict[str, float]] = {}
        self._last: Dict[int, tuple] = {}  # pid -> (wall, cpu_seconds)

    def sample(self, pids: List[int]) -> List[ResourceSample]:
        if not proc_available():
            return []
        now = time.time()
        samples = []
        for pid in pids:
            reading = read_proc_sample(pid)
            if reading is None:
                self._last.pop(pid, None)
                continue
            samples.append(reading)
            self._record(reading, now)
        return samples

    def _record(self, s: ResourceSample, now: float) -> None:
        reading = {"rss_bytes": s.rss_bytes, "cpu_seconds": s.cpu_seconds,
                   "threads": float(s.num_threads)}
        previous = self._last.get(s.pid)
        self._last[s.pid] = (now, s.cpu_seconds)
        if previous is not None and now > previous[0]:
            reading["cpu_utilization"] = max(
                0.0, (s.cpu_seconds - previous[1]) / (now - previous[0]))
        self.latest[s.pid] = reading
