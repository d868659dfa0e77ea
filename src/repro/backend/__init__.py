"""``repro.backend`` — the pluggable array-ops seam.

Every dense kernel in the repo — the engine's passband matmul-DFTs,
the nn substrate's GEMM convolutions and pooling, the workspace arenas —
bottoms out in a small set of array operations: ``matmul``, the 2-D
FFT family, patch lowering (``im2col``/``col2im``), ``einsum``,
reductions and dtype/device transfer.  :class:`ArrayBackend` names
that contract once, so the same engine/nn code runs wherever the
hardware is fastest:

* :class:`~repro.backend.numpy_backend.NumpyBackend` is the reference
  implementation — pure delegation to ``numpy``, bit-identical to the
  pre-seam code by construction (every method forwards to the exact
  numpy call the engine used to make inline).
* :class:`~repro.backend.cupy_backend.CupyBackend` is the optional
  GPU backend, resolved lazily: ``cupy`` is only imported when the
  backend is actually requested, and a missing/broken installation
  raises :class:`BackendUnavailableError` (tests skip, they do not
  fail).  Elementwise math on backend-native arrays dispatches
  through the NEP-18 ``__array_function__`` / ``__array_ufunc__``
  protocols, so only allocation, transfer and the hot dense ops need
  the explicit seam.

Backend resolution mirrors the precision seam: pass ``backend=`` to
:class:`~repro.litho.engine.LithoEngine` (or ``--backend`` on the
CLI), or set ``REPRO_BACKEND`` (``numpy``/``cupy``); the default is
numpy.  :func:`get_backend` returns the process-wide default used by
``repro.nn``.

The companion :mod:`repro.backend.autotune` module picks per-hardware
batch-chunk and passband-block sizes from measured timings scored
against the profiler's exact per-op FLOP closed forms, and persists
the winners as config presets (``benchmarks/autotune_presets.json``).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Type, Union

from .base import ArrayBackend, BackendUnavailableError
from .numpy_backend import NumpyBackend
from .cupy_backend import CupyBackend

__all__ = [
    "ArrayBackend", "BackendUnavailableError", "NumpyBackend",
    "CupyBackend", "resolve_backend", "get_backend", "set_backend",
    "available_backends", "BACKENDS",
]

#: Registered backend classes by canonical name.  Registration is
#: declarative — instantiation (and any heavyweight import) happens
#: only when a backend is actually resolved.
BACKENDS: Dict[str, Type[ArrayBackend]] = {
    "numpy": NumpyBackend,
    "cupy": CupyBackend,
}

_ALIASES = {
    "numpy": "numpy", "np": "numpy", "cpu": "numpy",
    "cupy": "cupy", "gpu": "cupy", "cuda": "cupy",
}

#: Memoized backend instances (backends are stateless; one per name).
_INSTANCES: Dict[str, ArrayBackend] = {}

#: Process-wide default backend, used by ``repro.nn`` and by engines
#: constructed without an explicit ``backend=``.
_DEFAULT: Optional[ArrayBackend] = None


def resolve_backend(backend: Union[None, str, ArrayBackend] = None
                    ) -> ArrayBackend:
    """Resolve a backend name (or pass an instance through).

    ``None`` consults the ``REPRO_BACKEND`` environment variable and
    falls back to ``"numpy"``.  Unknown names raise ``ValueError``;
    known-but-unavailable backends (e.g. ``cupy`` without a GPU
    installation) raise :class:`BackendUnavailableError` at resolve
    time — never at import time.
    """
    if isinstance(backend, ArrayBackend):
        return backend
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND") or "numpy"
    key = str(backend).strip().lower()
    if key not in _ALIASES:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{sorted(set(_ALIASES))}")
    name = _ALIASES[key]
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = BACKENDS[name]()   # may raise BackendUnavailableError
        _INSTANCES[name] = instance
    return instance


def get_backend() -> ArrayBackend:
    """The process-wide default backend (``REPRO_BACKEND`` or numpy)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = resolve_backend(None)
    return _DEFAULT


def set_backend(backend: Union[None, str, ArrayBackend]) -> ArrayBackend:
    """Install a process-wide default backend; returns the instance.

    ``set_backend(None)`` resets to environment resolution on the next
    :func:`get_backend` call.
    """
    global _DEFAULT
    _DEFAULT = None if backend is None else resolve_backend(backend)
    return get_backend() if _DEFAULT is None else _DEFAULT


def available_backends() -> Dict[str, bool]:
    """Availability of every registered backend (without raising)."""
    return {name: cls.is_available() for name, cls in BACKENDS.items()}
