"""``repro.parallel`` — multiprocess execution for independent work.

The litho/ILT workloads downstream of Algorithm 2 and the Fig. 6 flow
are dominated by per-clip computations that share nothing but the
kernel set: reference-mask generation for the training library, the
Table 2 / ICCAD-benchmark evaluation, and batch inference.  This
package fans them across a process pool (:class:`WorkerPool`), with

* one warm :class:`~repro.litho.engine.LithoEngine` per worker
  (kernels loaded once; inherited from the parent under ``fork``),
* shared-memory ndarray transport (:class:`SharedArray` /
  :class:`ShmSpec`) so image batches are never pickled,
* strict error discipline (:class:`WorkerTaskError` carries remote
  tracebacks; a dead worker raises :class:`WorkerCrashError`, never a
  hang), and
* per-worker utilization accounting (:class:`PoolStats`) surfaced by
  ``repro profile --workers N``.

Parallel results are bit-exact versus their serial counterparts at
either precision; the f32 ILT descent is covered by the documented
tolerance in DESIGN.md §10.
"""

from .ilt import ParallelILTResult, parallel_ilt
from .flow import generator_payload, parallel_flow
from .pool import (PoolStats, WorkerCrashError, WorkerPool, WorkerTaskError,
                   attach_array, default_context, worker_engine, worker_state)
from .shm import SharedArray, ShmSpec

__all__ = [
    "WorkerPool", "PoolStats", "WorkerTaskError", "WorkerCrashError",
    "SharedArray", "ShmSpec",
    "parallel_ilt", "ParallelILTResult",
    "parallel_flow", "generator_payload",
    "attach_array", "worker_engine", "worker_state", "default_context",
]
