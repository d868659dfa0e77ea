"""Reusable scratch-buffer arenas for hot numeric loops.

The profiler (PR 3) shows that the litho/ILT hot loop spends a
measurable slice of its time in the allocator: every
forward/adjoint call re-allocates the same handful of large
intermediates — the ``(K, N, H, W)`` field tensor, the full mask
spectrum, the adjoint accumulation buffer — with shapes that are
identical from one iteration to the next.

:class:`Workspace` is a tiny keyed arena fixing that: ``get(key,
shape, dtype)`` returns a preallocated buffer when one with the same
key/shape/dtype exists, else allocates and remembers it.  Buffers are
handed out *uninitialized* (callers must fully overwrite or
explicitly ``fill``), and a buffer obtained under some key must never
escape the call that requested it — the next iteration will overwrite
it.  Anything returned to user code must therefore be freshly
allocated, never arena-backed; the litho engine observes this rule by
only passing workspace buffers through internal code paths.

Buffers are stored under ``(key, dtype)`` composite keys, so an arena
shared by f32 and f64 call paths keeps one live buffer per dtype
instead of thrashing a single slot — and, more importantly, an f32
caller can never be handed a view aliasing an f64 caller's live data.

Workspaces are intentionally not thread-safe: each
:class:`~repro.litho.engine.LithoEngine` owns one and is driven from a
single thread per process; the multiprocess execution layer
(``repro.parallel``) gives every worker its own engine and hence its
own arena.

Set ``REPRO_WORKSPACE=off`` (or construct with ``enabled=False``) to
disable reuse globally — every ``get`` then returns a fresh array,
which is the simplest way to rule the arena out when debugging an
aliasing suspicion.
"""

from __future__ import annotations

import os
from typing import Dict, Hashable, Optional, Tuple

import numpy as np


def _env_enabled() -> bool:
    value = os.environ.get("REPRO_WORKSPACE", "").strip().lower()
    return value not in ("0", "off", "none", "false")


class Workspace:
    """Keyed arena of reusable scratch buffers.

    Parameters
    ----------
    enabled:
        ``False`` makes :meth:`get` always allocate (no reuse).  The
        default consults ``REPRO_WORKSPACE`` (anything but
        ``0/off/none/false`` enables).
    """

    __slots__ = ("enabled", "_buffers", "hits", "misses")

    def __init__(self, enabled: Optional[bool] = None):
        self.enabled = _env_enabled() if enabled is None else bool(enabled)
        self._buffers: Dict[Hashable, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, shape: Tuple[int, ...],
            dtype) -> np.ndarray:
        """Uninitialized buffer of ``shape``/``dtype`` for ``key``.

        Reuses the previous buffer for ``(key, dtype)`` when
        the shape matches; otherwise (or when disabled) allocates.
        Contents are arbitrary — treat like ``np.empty``.  Requests
        for the same ``key`` under different dtypes coexist: each
        dtype owns its own slot, so cross-dtype callers never alias
        (and never thrash) each other's buffers.
        """
        dtype = np.dtype(dtype)
        if not self.enabled:
            return np.empty(shape, dtype=dtype)
        storage_key = (key, dtype)
        buffer = self._buffers.get(storage_key)
        if buffer is not None and buffer.shape == tuple(shape):
            self.hits += 1
            return buffer
        self.misses += 1
        buffer = np.empty(shape, dtype=dtype)
        self._buffers[storage_key] = buffer
        return buffer

    def zeros(self, key: Hashable, shape: Tuple[int, ...],
              dtype) -> np.ndarray:
        """Like :meth:`get` but zero-filled (reused buffers are wiped)."""
        buffer = self.get(key, shape, dtype)
        buffer.fill(0)
        return buffer

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(b.nbytes for b in self._buffers.values())

    def clear(self) -> None:
        """Drop every held buffer (frees the memory)."""
        self._buffers.clear()

    def __repr__(self) -> str:
        return (f"Workspace(enabled={self.enabled}, "
                f"buffers={len(self._buffers)}, nbytes={self.nbytes}, "
                f"hits={self.hits}, misses={self.misses})")
