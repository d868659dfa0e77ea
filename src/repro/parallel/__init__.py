"""``repro.parallel`` — multiprocess execution for independent work.

The litho/ILT workloads downstream of Algorithm 2 and the Fig. 6 flow
are dominated by units of work that share nothing but the kernel set:
a reference mask of the training library (:func:`parallel_ilt`), a
Table 2 clip under all three methods
(:func:`~repro.bench.harness.run_table2`), a tile of a chip
(:mod:`repro.tiling`).  Each entry point writes its unit once, as one
module-level task, and runs it through a :class:`TaskRunner`: inline,
in order, with one worker, and across a process pool
(:class:`WorkerPool`) otherwise, with

* one warm :class:`~repro.litho.engine.LithoEngine` per worker
  (kernels loaded once; inherited from the parent under ``fork``),
* shared-memory ndarray transport (:class:`SharedArray` /
  :class:`ShmSpec`) so image batches are never pickled,
* strict error discipline (:class:`WorkerTaskError` carries remote
  tracebacks; a dead worker raises :class:`WorkerCrashError`, never a
  hang), and
* per-worker utilization accounting (:class:`PoolStats`) surfaced by
  ``repro profile --workers N``.

Because both cases run the same task on the same float64 inputs,
pooled results are bit-exact versus inline ones at either precision;
the f32 ILT descent is covered by the documented tolerance in
DESIGN.md §10.
"""

from .ilt import ParallelILTResult, parallel_ilt
from .flow import generator_payload
from .pool import (PoolStats, TaskRunner, WorkerCrashError, WorkerPool,
                   WorkerTaskError, attach_array, default_context,
                   worker_engine, worker_state)
from .shm import SharedArray, ShmSpec

__all__ = [
    "WorkerPool", "PoolStats", "TaskRunner", "WorkerTaskError",
    "WorkerCrashError", "SharedArray", "ShmSpec",
    "parallel_ilt", "ParallelILTResult", "generator_payload",
    "attach_array", "worker_engine", "worker_state", "default_context",
]
