"""Shared-memory ndarray transport for the worker pool.

Image batches — target stacks, result masks, ILT parameters — are far
too large to pickle per task: a (4000, 256, 256) float64 target library
is 2 GB, and round-tripping it through the executor's pipes would
swamp the compute being distributed.  Instead the parent allocates one
POSIX shared-memory segment per array (:meth:`SharedArray.create` /
:meth:`SharedArray.from_array`), ships only the tiny :class:`ShmSpec`
(name + shape + dtype) inside each task, and workers map the same
physical pages with :meth:`SharedArray.attach`.  Tasks then read their
input slice and write their output slice in place; nothing but scalars
and histories crosses the pickle boundary.

Lifetime rules:

* the **parent** owns every segment: it calls :meth:`SharedArray.unlink`
  (usually via the context manager) once all tasks have finished;
* **workers** only ever attach and close; attachment is explicitly
  excluded from the ``resource_tracker`` so a worker exiting does not
  tear down (or spuriously warn about) a segment the parent still owns
  — the well-known bpo-38119 behaviour of ``multiprocessing``.

Writers partition output slices by task index, so no two tasks touch
the same bytes and no locking is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class ShmSpec:
    """Picklable handle to a shared ndarray (what tasks receive)."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it with the resource
    tracker.

    Python < 3.13 registers every ``SharedMemory(name=...)`` attachment
    with the resource tracker, which then unlinks the segment when the
    attaching process exits — destroying memory the creating process
    still owns (bpo-38119).  Attachments must not be tracked; only the
    owner unlinks.  3.13+ exposes ``track=False`` for exactly this;
    earlier versions need the registration call suppressed (suppressing
    beats unregistering afterwards, which under ``fork`` double-removes
    the entry from the shared tracker and makes it log spurious
    ``KeyError`` tracebacks at unlink time).
    """
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


class SharedArray:
    """A numpy array backed by a ``multiprocessing.shared_memory`` segment.

    Use :meth:`create`/:meth:`from_array` in the parent (owner) and
    :meth:`attach` in workers.  The owner's context-manager exit closes
    *and unlinks*; an attached instance only closes.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 spec: ShmSpec, owner: bool):
        self._shm = shm
        self.spec = spec
        self.owner = owner
        self.array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                                buffer=shm.buf)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, shape: Tuple[int, ...], dtype) -> "SharedArray":
        """Allocate an owned, zero-initialized shared array."""
        dtype = np.dtype(dtype)
        nbytes = max(int(np.prod(shape)) * dtype.itemsize, 1)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        spec = ShmSpec(name=shm.name, shape=tuple(int(s) for s in shape),
                       dtype=dtype.str)
        shared = cls(shm, spec, owner=True)
        shared.array.fill(0)
        return shared

    @classmethod
    def from_array(cls, array: np.ndarray) -> "SharedArray":
        """Allocate an owned shared array holding a copy of ``array``."""
        array = np.asarray(array)
        shared = cls.create(array.shape, array.dtype)
        shared.array[...] = array
        return shared

    @classmethod
    def attach(cls, spec: ShmSpec) -> "SharedArray":
        """Map an existing segment by spec (worker side, non-owning)."""
        return cls(_attach_untracked(spec.name), spec, owner=False)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (the array becomes invalid)."""
        self.array = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only; call after close is fine)."""
        if not self.owner:
            raise RuntimeError("only the owning process may unlink")
        self._shm.unlink()

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.close()
        finally:
            if self.owner:
                self.unlink()

    def __repr__(self) -> str:
        role = "owner" if self.owner else "attached"
        return (f"SharedArray({self.spec.name}, shape={self.spec.shape}, "
                f"dtype={self.spec.dtype}, {role})")
