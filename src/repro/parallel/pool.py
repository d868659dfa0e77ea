"""Process pool with warm per-worker litho engines.

:class:`WorkerPool` wraps ``concurrent.futures.ProcessPoolExecutor``
with the conventions every parallel workload in this repo shares:

* **warm engines** — each worker process builds (lazily, on first use)
  one :class:`~repro.litho.engine.LithoEngine` for the pool's litho
  config and precision, via :func:`worker_engine`; an ILT task also
  builds that kernel set's f32 descent engine once, through the same
  ``for_kernels`` memo.  Under the default
  ``fork`` start method the parent's in-process kernel cache is
  inherited, so workers never re-decompose kernels; under ``spawn``
  they fall back to the ``REPRO_KERNEL_CACHE`` disk cache.
* **shared-memory transport** — tasks receive
  :class:`~repro.parallel.shm.ShmSpec` handles and map the arrays with
  :func:`attach_array`, which memoizes attachments per segment so a
  worker maps each array once, not once per task.
* **error discipline** — an exception inside a task is captured with
  its traceback and re-raised in the parent as :class:`WorkerTaskError`
  (remaining futures are cancelled); a worker dying outright (segfault,
  ``os._exit``) surfaces promptly as :class:`WorkerCrashError` instead
  of hanging the parent.
* **observability** — every :meth:`WorkerPool.map` runs under a
  ``parallel.map`` span.  Each task ships back its delta of the
  worker's process-wide litho counters (``LithoEngine.stats``, always)
  and, when the parent is tracing, its finished spans and profiler
  tables as a bounded
  :class:`~repro.obs.aggregate.TaskTelemetry`; the parent merges
  these into :class:`PoolStats` (fleet engine/span/op totals) and
  deposits worker spans into the active tracer so ``--trace-dir``
  writes one pid-laned Chrome trace (DESIGN.md §13).
* **health** — workers stamp a shared-memory heartbeat board
  (per-task beacons + a daemon beat thread); while a ``map`` is in
  flight a parent watchdog flags active tasks silent past
  ``stall_after`` seconds into :attr:`PoolStats.stalls`, and a /proc
  resource sampler keeps each worker's latest RSS/CPU reading in
  :attr:`WorkerPool.sampler`.  Stragglers (tasks slower than
  k×median) are available post-hoc via :meth:`PoolStats.stragglers`.

Task functions must be module-level (picklable); per-task arguments
should be small — ship arrays through shared memory, not arguments.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple)

from repro.obs import profiler, trace
from repro.obs import aggregate as obs_aggregate
from repro.obs.aggregate import FleetTelemetry, TaskTelemetry
from repro.obs.health import (HeartbeatBoard, ResourceSampler, StallEvent,
                              Watchdog, WorkerHeartbeat)

from ..litho.config import LithoConfig
from ..litho.engine import LithoEngine, resolve_precision
from ..litho.kernels import build_kernels
from .shm import ShmSpec, SharedArray

#: ``progress`` callback signature for :meth:`WorkerPool.map`:
#: ``(done, total, pid, seconds)`` after every finished task.
ProgressFn = Callable[[int, int, int, float], None]


class WorkerTaskError(RuntimeError):
    """A task raised inside a worker; carries the remote traceback."""

    def __init__(self, message: str, remote_traceback: str = ""):
        super().__init__(message)
        self.remote_traceback = remote_traceback


class WorkerCrashError(RuntimeError):
    """A worker process died without reporting a result."""


# ----------------------------------------------------------------------
# Worker-side globals (one copy per worker process)
# ----------------------------------------------------------------------
_WORKER_STATE: Dict[str, Any] = {
    "litho_config": None,
    "precision": None,
    "state": None,
    "arrays": {},
    "heartbeat": None,
}


def _worker_init(litho_config: Optional[LithoConfig], precision: str,
                 state: Any,
                 heartbeat: Optional[Tuple[str, int, float]] = None) -> None:
    """Executor initializer: stash the pool-wide context in this worker."""
    # Under ``fork`` the child inherits the parent's active tracer and
    # profiler objects (including an open JSONL file description shared
    # with the parent); drop them so worker telemetry is per-task and
    # the parent's streams stay uncorrupted.
    trace.reset_for_child()
    profiler.ACTIVE = None
    profiler._previous.clear()
    _WORKER_STATE["litho_config"] = litho_config
    _WORKER_STATE["precision"] = precision
    _WORKER_STATE["state"] = state
    _WORKER_STATE["arrays"] = {}
    _WORKER_STATE["heartbeat"] = None
    if heartbeat is not None:
        name, capacity, interval = heartbeat
        try:
            _WORKER_STATE["heartbeat"] = WorkerHeartbeat(
                name, capacity, interval=interval)
        except Exception:  # board gone / platform quirk: run unmonitored
            _WORKER_STATE["heartbeat"] = None


def worker_engine(litho_config: Optional[LithoConfig] = None) -> LithoEngine:
    """The warm per-process engine for the pool's (or given) config
    (``for_kernels`` memoizes, so the same engine persists across
    tasks)."""
    config = litho_config or _WORKER_STATE["litho_config"]
    if config is None:
        raise RuntimeError("pool has no litho config and none was given")
    return LithoEngine.for_kernels(build_kernels(config),
                                   precision=_WORKER_STATE["precision"])


def worker_state() -> Any:
    """Pool-wide broadcast state (e.g. generator weights), if any."""
    return _WORKER_STATE["state"]


def attach_array(spec: ShmSpec):
    """Attach (memoized per worker) a shared array and return the ndarray."""
    shared = _WORKER_STATE["arrays"].get(spec.name)
    if shared is None:
        shared = SharedArray.attach(spec)
        _WORKER_STATE["arrays"][spec.name] = shared
    return shared.array


def _run_task(fn: Callable, args: Tuple, ship_telemetry: bool = False
              ) -> Tuple:
    """Worker-side wrapper: time the task, capture failures + telemetry.

    Failures come back as data (not raised) so the parent never trips
    over an exception type that does not survive pickling.  Every
    report carries a :class:`TaskTelemetry`: the task's delta of the
    process-wide litho counters always ships (a forked worker inherits
    the parent's counts, which the delta cancels); spans and profiler
    tables ship only when ``ship_telemetry`` (the parent was tracing
    at submit time).
    """
    heartbeat = _WORKER_STATE["heartbeat"]
    if heartbeat is not None:
        heartbeat.task_started()
    litho = LithoEngine.stats
    before = litho.snapshot()
    tracer = prof = None
    if ship_telemetry:
        tracer = trace.enable(trace.Tracer())
        prof = profiler.enable()
    started = time.perf_counter()
    failure = None
    value = None
    try:
        try:
            value = fn(*args)
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            failure = (f"{type(exc).__name__}: {exc}",
                       traceback.format_exc())
    finally:
        if ship_telemetry:
            trace.disable()
            profiler.disable()
    seconds = time.perf_counter() - started
    telemetry = obs_aggregate.capture_task(tracer, prof, litho.delta(before),
                                           seconds)
    if heartbeat is not None:
        heartbeat.task_finished()
    if failure is not None:
        message, remote_tb = failure
        return ("error", message, remote_tb, os.getpid(), seconds,
                telemetry)
    return ("ok", value, os.getpid(), seconds, telemetry)


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
@dataclass
class PoolStats:
    """Aggregated per-worker execution accounting for one pool."""

    workers: int = 0
    tasks: int = 0
    wall_seconds: float = 0.0
    busy_seconds: Dict[int, float] = field(default_factory=dict)
    task_counts: Dict[int, int] = field(default_factory=dict)
    task_records: List[Tuple[int, float]] = field(default_factory=list)
    stalls: List[StallEvent] = field(default_factory=list)
    fleet: FleetTelemetry = field(default_factory=FleetTelemetry)

    def record(self, pid: int, seconds: float,
               telemetry: Optional[TaskTelemetry] = None) -> None:
        self.tasks += 1
        self.busy_seconds[pid] = self.busy_seconds.get(pid, 0.0) + seconds
        self.task_counts[pid] = self.task_counts.get(pid, 0) + 1
        self.task_records.append((pid, seconds))
        if telemetry is not None:
            self.fleet.add(telemetry)

    def record_stall(self, event: StallEvent) -> None:
        self.stalls.append(event)

    @property
    def total_busy_seconds(self) -> float:
        return sum(self.busy_seconds.values())

    def utilization(self) -> float:
        """Mean fraction of pool wall-clock each worker spent computing."""
        if self.wall_seconds <= 0.0 or self.workers == 0:
            return 0.0
        return self.total_busy_seconds / (self.wall_seconds * self.workers)

    def median_task_seconds(self) -> float:
        if not self.task_records:
            return 0.0
        return statistics.median(seconds for _, seconds in
                                 self.task_records)

    def stragglers(self, k: float = 3.0, min_tasks: int = 4
                   ) -> List[Tuple[int, float]]:
        """Tasks slower than ``k`` × the median task time.

        Judged post-hoc over the whole run (a straggler beats its
        heartbeat, so the watchdog rightly ignores it); needs at
        least ``min_tasks`` records for the median to mean anything.
        """
        if len(self.task_records) < max(min_tasks, 1):
            return []
        median = self.median_task_seconds()
        if median <= 0.0:
            return []
        return [(pid, seconds) for pid, seconds in self.task_records
                if seconds > k * median]

    def format_table(self) -> str:
        """Per-worker utilization table (``repro profile`` output)."""
        straggler_pids: Dict[int, int] = {}
        for pid, _ in self.stragglers():
            straggler_pids[pid] = straggler_pids.get(pid, 0) + 1
        stall_pids: Dict[int, int] = {}
        for event in self.stalls:
            stall_pids[event.pid] = stall_pids.get(event.pid, 0) + 1
        lines = [f"{'worker pid':>12s} {'tasks':>6s} {'busy s':>9s} "
                 f"{'util %':>7s} {'flags':>14s}"]
        for pid in sorted(self.busy_seconds):
            busy = self.busy_seconds[pid]
            util = (100.0 * busy / self.wall_seconds
                    if self.wall_seconds > 0 else 0.0)
            flags = []
            if stall_pids.get(pid):
                flags.append(f"stalls:{stall_pids[pid]}")
            if straggler_pids.get(pid):
                flags.append(f"slow:{straggler_pids[pid]}")
            lines.append(f"{pid:>12d} {self.task_counts[pid]:>6d} "
                         f"{busy:>9.3f} {util:>6.1f}% "
                         f"{','.join(flags) or '-':>14s}")
        lines.append(f"{'total':>12s} {self.tasks:>6d} "
                     f"{self.total_busy_seconds:>9.3f} "
                     f"{100.0 * self.utilization():>6.1f}% "
                     f"{'':>14s}")
        if self.fleet.engine_seconds > 0.0:
            lines.append(obs_aggregate.format_engine_table(
                self.fleet.engine_totals))
        return "\n".join(lines)


def default_context() -> str:
    """``fork`` where the platform offers it (warm caches), else ``spawn``."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


class WorkerPool:
    """Fixed-size process pool for independent litho/ILT work items.

    Parameters
    ----------
    workers:
        Number of worker processes (>= 1).
    litho_config:
        Config whose engine :func:`worker_engine` builds in each worker.
    precision:
        Precision of the workers' :func:`worker_engine` (``None`` =
        ``"f64"``): what scores masks and computes metrics.  ILT
        descents in the workers run in f32 either way.
    state:
        Arbitrary picklable broadcast state, shipped once per worker at
        startup and readable via :func:`worker_state` (e.g. generator
        weights for the flow/Table-2 workloads).
    context:
        ``multiprocessing`` start-method name; default prefers ``fork``.
    health:
        Heartbeat board + watchdog + /proc sampler (default on).
    stall_after:
        Watchdog threshold: an *active* task whose heartbeat is older
        than this many seconds is flagged into :attr:`PoolStats.stalls`.
    heartbeat_interval:
        Worker beat (and parent scan) period in seconds.

    Spans and profiler tables ship back per task whenever the parent
    has an active tracer at :meth:`map` time; litho-counter deltas
    always ship.  :attr:`sampler` holds each worker's latest /proc
    reading (export via ``repro.obs.export``).
    """

    def __init__(self, workers: int,
                 litho_config: Optional[LithoConfig] = None,
                 precision: Optional[str] = None,
                 state: Any = None,
                 context: Optional[str] = None,
                 health: bool = True,
                 stall_after: float = 5.0,
                 heartbeat_interval: float = 0.25):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.litho_config = litho_config
        self.precision = resolve_precision(precision)
        self.state = state
        self.context = context or default_context()
        self.health = bool(health)
        self.stall_after = float(stall_after)
        self.heartbeat_interval = float(heartbeat_interval)
        self.sampler = ResourceSampler()
        self.stats = PoolStats(workers=self.workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._board: Optional[HeartbeatBoard] = None
        self._watchdog: Optional[Watchdog] = None
        self._traced_pids: Set[int] = set()

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            heartbeat_spec = None
            if self.health:
                try:
                    self._board = HeartbeatBoard(
                        capacity=max(4 * self.workers, 8), create=True)
                except Exception:  # no shared memory: run unmonitored
                    self._board = None
                if self._board is not None:
                    heartbeat_spec = (self._board.name, self._board.capacity,
                                      self.heartbeat_interval)
                    self._watchdog = Watchdog(
                        self._board, stall_after=self.stall_after,
                        interval=self.heartbeat_interval,
                        on_stall=self.stats.record_stall,
                        sampler=self.sampler)
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(self.context),
                initializer=_worker_init,
                initargs=(self.litho_config, self.precision, self.state,
                          heartbeat_spec))
        return self._executor

    def _absorb(self, pid: int, seconds: float,
                telemetry: Optional[TaskTelemetry]) -> None:
        """Fold one task report into stats and the active tracer."""
        self.stats.record(pid, seconds, telemetry)
        tracer = trace.active()
        if tracer is None or telemetry is None or not telemetry.spans:
            return
        if pid not in self._traced_pids:
            self._traced_pids.add(pid)
            tracer.add_external_events([
                obs_aggregate.process_metadata_event(
                    pid, f"repro worker {pid}")])
        tracer.add_external_events(
            obs_aggregate.chrome_events(telemetry, tracer.epoch))

    def map(self, fn: Callable, items: Iterable[Tuple],
            label: str = "parallel.map",
            progress: Optional[ProgressFn] = None) -> List[Any]:
        """Run ``fn(*item)`` for every item; results in submission order.

        ``fn`` must be a module-level function.  A task exception
        cancels the remaining work and raises :class:`WorkerTaskError`
        with the worker traceback; a dead worker raises
        :class:`WorkerCrashError`.  ``progress`` (if given) is called
        as ``progress(done, total, pid, seconds)`` after every
        finished task, in completion order.
        """
        items = list(items)
        executor = self._ensure_executor()
        ship = trace.is_enabled()
        total = len(items)
        started = time.perf_counter()
        futures: Dict[Any, int] = {}
        results: List[Any] = [None] * total
        if self._watchdog is not None:
            self._watchdog.start()
        with trace.span(label, tasks=total, workers=self.workers):
            try:
                for index, item in enumerate(items):
                    futures[executor.submit(
                        _run_task, fn, tuple(item), ship)] = index
                done = 0
                for future in as_completed(futures):
                    report = future.result()
                    if report[0] == "error":
                        _, message, remote_tb, pid, seconds, telemetry = (
                            report)
                        self._absorb(pid, seconds, telemetry)
                        raise WorkerTaskError(
                            f"worker task failed: {message}", remote_tb)
                    _, value, pid, seconds, telemetry = report
                    self._absorb(pid, seconds, telemetry)
                    results[futures[future]] = value
                    done += 1
                    if progress is not None:
                        progress(done, total, pid, seconds)
            except BrokenProcessPool as exc:
                raise WorkerCrashError(
                    "a worker process died before finishing its task "
                    "(pool is no longer usable)") from exc
            finally:
                for future in futures:
                    future.cancel()
                if self._watchdog is not None:
                    self._watchdog.stop()
                self.stats.wall_seconds += time.perf_counter() - started
        return results

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._board is not None:
            try:
                self._board.close()
                self._board.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._board = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self):  # last-resort board cleanup
        try:
            self.shutdown()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def __repr__(self) -> str:
        return (f"WorkerPool(workers={self.workers}, "
                f"context={self.context!r}, precision={self.precision!r})")
