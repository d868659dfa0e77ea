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
  worker maps each array once per :meth:`WorkerPool.map`, not once per
  task; a worker's first task of a new ``map`` closes the attachments
  of earlier ones, whose segments the parent has unlinked by then.
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
  writes one pid-laned Chrome trace (DESIGN.md §13).  Stragglers
  (warm tasks slower than k×median) are available post-hoc via
  :meth:`PoolStats.stragglers`, and :meth:`PoolStats.log_to` writes
  them with one per-worker summary each into a run's stream.

Task functions must be module-level (picklable); per-task arguments
should be small — ship arrays through shared memory, not arguments.

:class:`TaskRunner` is how the parallel entry points use all of this:
one task function per unit of work (clip, tile), run on a pool when the
caller gives one or asks for ``workers > 1``, and inline, in order,
otherwise.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set,
                    Tuple)

import numpy as np

from repro.obs import profiler, trace
from repro.obs import aggregate as obs_aggregate
from repro.obs.aggregate import FleetTelemetry, TaskTelemetry

from ..litho.config import LithoConfig
from ..litho.engine import LithoEngine, resolve_precision
from ..litho.kernels import build_kernels
from .shm import SharedArray

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
    "map": None,
}


def _worker_init(litho_config: Optional[LithoConfig], precision: str,
                 state: Any) -> None:
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
    _WORKER_STATE["map"] = None


def worker_engine(litho_config: Optional[LithoConfig] = None) -> LithoEngine:
    """The warm per-process engine for the run's (or given) config
    (``for_kernels`` memoizes, so the same engine persists across
    tasks)."""
    config = litho_config or _WORKER_STATE["litho_config"]
    if config is None:
        raise RuntimeError("pool has no litho config and none was given")
    return LithoEngine.for_kernels(build_kernels(config),
                                   precision=_WORKER_STATE["precision"])


def worker_state() -> Any:
    """The run's broadcast state (e.g. generator weights), if any."""
    return _WORKER_STATE["state"]


def attach_array(spec):
    """The ndarray behind a task's array handle.

    A :class:`ShmSpec` is attached (memoized per worker and map); an
    ndarray, which is what an inline :class:`TaskRunner` hands its
    tasks, comes back unchanged.
    """
    if isinstance(spec, np.ndarray):
        return spec
    shared = _WORKER_STATE["arrays"].get(spec.name)
    if shared is None:
        shared = SharedArray.attach(spec)
        _WORKER_STATE["arrays"][spec.name] = shared
    return shared.array


def _enter_map(map_index: int) -> None:
    """Close the attachments of earlier maps at a map's first task here.

    Their segments are unlinked by the time a later map runs, so only
    this process's mapping still pins their memory.  A ``BufferError``
    from ``close`` means a task kept a view of a shared array past its
    return.
    """
    if _WORKER_STATE["map"] == map_index:
        return
    arrays = _WORKER_STATE["arrays"]
    while arrays:
        arrays.popitem()[1].close()
    _WORKER_STATE["map"] = map_index


def _run_task(fn: Callable, args: Tuple, ship_telemetry: bool,
              map_index: int) -> Tuple:
    """Worker-side wrapper: time the task, capture failures + telemetry.

    Failures come back as data (not raised) so the parent never trips
    over an exception type that does not survive pickling.  Every
    report carries a :class:`TaskTelemetry`: the task's delta of the
    process-wide litho counters always ships (a forked worker inherits
    the parent's counts, which the delta cancels); spans and profiler
    tables ship only when ``ship_telemetry`` (the parent was tracing
    at submit time).  ``map_index`` numbers the pool's maps, so the
    task can release what earlier maps attached.
    """
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
            _enter_map(map_index)
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
    fleet: FleetTelemetry = field(default_factory=FleetTelemetry)

    def record(self, pid: int, seconds: float,
               telemetry: Optional[TaskTelemetry] = None) -> None:
        self.tasks += 1
        self.busy_seconds[pid] = self.busy_seconds.get(pid, 0.0) + seconds
        self.task_counts[pid] = self.task_counts.get(pid, 0) + 1
        self.task_records.append((pid, seconds))
        if telemetry is not None:
            self.fleet.add(telemetry)

    @property
    def total_busy_seconds(self) -> float:
        return sum(self.busy_seconds.values())

    def utilization(self) -> float:
        """Mean fraction of pool wall-clock each worker spent computing."""
        if self.wall_seconds <= 0.0 or self.workers == 0:
            return 0.0
        return self.total_busy_seconds / (self.wall_seconds * self.workers)

    def _warm_records(self) -> List[Tuple[int, float]]:
        """Task records without each worker's first task on the pool,
        which carries that worker's engine warm-up."""
        seen: Set[int] = set()
        warm = []
        for pid, seconds in self.task_records:
            if pid in seen:
                warm.append((pid, seconds))
            seen.add(pid)
        return warm

    def median_task_seconds(self) -> float:
        """Median time of a warm task (see :meth:`stragglers`)."""
        warm = self._warm_records()
        if not warm:
            return 0.0
        return statistics.median(seconds for _, seconds in warm)

    def stragglers(self, k: float = 3.0, min_tasks: int = 4
                   ) -> List[Tuple[int, float]]:
        """Warm tasks slower than ``k`` × :meth:`median_task_seconds`.

        A worker's first task on the pool builds its engine, so it is
        neither a candidate nor part of the median.  Judged post-hoc
        over the whole run; needs at least ``min_tasks`` warm records
        for the median to mean anything.
        """
        warm = self._warm_records()
        if len(warm) < max(min_tasks, 1):
            return []
        median = statistics.median(seconds for _, seconds in warm)
        if median <= 0.0:
            return []
        return [(pid, seconds) for pid, seconds in warm
                if seconds > k * median]

    def log_to(self, logger) -> None:
        """Write the pool's records into a run's stream: one
        ``straggler`` anomaly per :meth:`stragglers` task, then one
        ``worker_span_summary`` per worker pid with its task count,
        busy time and the span and litho-counter merges it shipped."""
        median = self.median_task_seconds()
        for pid, seconds in self.stragglers():
            logger.anomaly("straggler", pid=pid, seconds=seconds,
                           median_seconds=median)
        fleet = self.fleet
        for pid in sorted(set(self.task_counts)
                          | set(fleet.pid_span_summary)):
            logger.worker_span_summary(
                pid, fleet.pid_span_summary.get(pid, {}),
                tasks=self.task_counts.get(pid),
                busy_seconds=self.busy_seconds.get(pid),
                dropped_spans=fleet.dropped_spans or None,
                litho=fleet.pid_engine.get(pid) or None)

    def format_table(self) -> str:
        """Per-worker utilization table (``repro profile`` output)."""
        straggler_pids: Dict[int, int] = {}
        for pid, _ in self.stragglers():
            straggler_pids[pid] = straggler_pids.get(pid, 0) + 1
        lines = [f"{'worker pid':>12s} {'tasks':>6s} {'busy s':>9s} "
                 f"{'util %':>7s} {'flags':>14s}"]
        for pid in sorted(self.busy_seconds):
            busy = self.busy_seconds[pid]
            util = (100.0 * busy / self.wall_seconds
                    if self.wall_seconds > 0 else 0.0)
            flag = (f"slow:{straggler_pids[pid]}"
                    if pid in straggler_pids else "-")
            lines.append(f"{pid:>12d} {self.task_counts[pid]:>6d} "
                         f"{busy:>9.3f} {util:>6.1f}% {flag:>14s}")
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

    Workers start with :func:`default_context`.  Spans and profiler
    tables ship back per task whenever the parent has an active tracer
    at :meth:`map` time; litho-counter deltas always ship.
    """

    def __init__(self, workers: int,
                 litho_config: Optional[LithoConfig] = None,
                 precision: Optional[str] = None,
                 state: Any = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.litho_config = litho_config
        self.precision = resolve_precision(precision)
        self.state = state
        self.stats = PoolStats(workers=self.workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._traced_pids: Set[int] = set()
        self._maps = 0

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(default_context()),
                initializer=_worker_init,
                initargs=(self.litho_config, self.precision, self.state))
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
        self._maps += 1
        total = len(items)
        started = time.perf_counter()
        futures: Dict[Any, int] = {}
        results: List[Any] = [None] * total
        with trace.span(label, tasks=total, workers=self.workers):
            try:
                for index, item in enumerate(items):
                    futures[executor.submit(
                        _run_task, fn, tuple(item), ship,
                        self._maps)] = index
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
                self.stats.wall_seconds += time.perf_counter() - started
        return results

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (f"WorkerPool(workers={self.workers}, "
                f"precision={self.precision!r})")


class TaskRunner:
    """One batch of independent tasks, on a worker pool or inline.

    With ``pool``, or with ``workers > 1`` (the runner then starts a
    :class:`WorkerPool` and owns it), :meth:`map` runs ``fn(*item)``
    through :meth:`WorkerPool.map` and :meth:`share` puts arrays in
    shared memory.  Otherwise :meth:`map` runs the same ``fn`` in this
    process, in order, and :meth:`share` hands over the arrays
    themselves.  A task body cannot tell the two apart:
    :func:`attach_array` turns either handle into an ndarray, and
    inline tasks read :func:`worker_engine` and :func:`worker_state`
    from this run's ``litho_config``, ``precision`` and ``state`` (a
    given pool answers from its own).  An inline run adds no span, no
    shared memory and no :class:`PoolStats`.

    Use it as a context manager: exit closes and unlinks every segment
    :meth:`share` created and shuts down a pool the runner started,
    also on error.
    """

    def __init__(self, workers: int = 1,
                 pool: Optional[WorkerPool] = None,
                 litho_config: Optional[LithoConfig] = None,
                 precision: Optional[str] = None,
                 state: Any = None):
        self._cleanup = ExitStack()
        if pool is None and workers > 1:
            pool = WorkerPool(workers, litho_config=litho_config,
                              precision=precision, state=state)
            self._cleanup.callback(pool.shutdown)
        self.pool = pool
        self._context = {"litho_config": litho_config,
                         "precision": resolve_precision(precision),
                         "state": state}
        self._segments: Dict[str, SharedArray] = {}

    @property
    def workers(self) -> int:
        return 1 if self.pool is None else self.pool.workers

    @property
    def pool_stats(self) -> Optional[PoolStats]:
        return None if self.pool is None else self.pool.stats

    def share(self, array: np.ndarray):
        """A handle to ``array`` for tasks to :func:`attach_array`: the
        spec of a shared-memory copy on a pool, ``array`` itself inline.
        Tasks may write into it; :meth:`collect` reads it back."""
        if self.pool is None:
            return array
        shared = self._cleanup.enter_context(SharedArray.from_array(array))
        self._segments[shared.spec.name] = shared
        return shared.spec

    def collect(self, handle) -> np.ndarray:
        """The array behind a :meth:`share` handle, as one that outlives
        the run (a private copy of a shared segment)."""
        if self.pool is None:
            return handle
        return np.array(self._segments[handle.name].array, copy=True)

    def map(self, fn: Callable, items: Iterable[Tuple],
            label: str = "parallel.map",
            progress: Optional[ProgressFn] = None) -> List[Any]:
        """``[fn(*item) for item in items]``; ``label`` names the pool's
        map span and ``progress`` is called as in :meth:`WorkerPool.map`
        (inline: once per item, in order)."""
        if self.pool is not None:
            return self.pool.map(fn, items, label=label, progress=progress)
        items = list(items)
        saved = {key: _WORKER_STATE[key] for key in self._context}
        _WORKER_STATE.update(self._context)
        try:
            results = []
            for done, item in enumerate(items, start=1):
                started = time.perf_counter()
                results.append(fn(*item))
                if progress is not None:
                    progress(done, len(items), os.getpid(),
                             time.perf_counter() - started)
            return results
        finally:
            _WORKER_STATE.update(saved)

    def __enter__(self) -> "TaskRunner":
        return self

    def __exit__(self, *exc) -> None:
        self._segments.clear()
        self._cleanup.close()
