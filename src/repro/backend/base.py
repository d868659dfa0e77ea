"""The duck-typed :class:`ArrayBackend` contract.

A backend supplies the small set of dense operations everything above
the seam is written against: allocation, host transfer, ``matmul`` /
``einsum``, the 2-D FFT family, the im2col/col2im patch lowering, and
reductions.  Everything else (elementwise arithmetic, ufuncs, slicing)
goes through numpy's NEP-18 dispatch, which backend-native arrays such
as cupy's implement — so engine code keeps calling ``np.multiply(...)``
and only routes allocation/GEMM/FFT through ``self._be``.

The contract is duck-typed on purpose: a third-party backend only has
to provide these methods, not inherit from this class.  This base
class exists to document the surface, centralise the FFT/reduction
defaults (expressed via ``self.xp``), and give ``isinstance`` a target
for the resolver.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from . import ops as _ops


class BackendUnavailableError(RuntimeError):
    """Raised when a registered backend cannot run on this machine
    (e.g. the cupy backend without a CUDA installation).  Tests catch
    this to *skip*, never to fail."""


class ArrayBackend:
    """Base class for array-ops backends.

    Subclasses set :attr:`name` and :attr:`xp` (the array module —
    ``numpy`` or ``cupy``); the default method bodies delegate to
    ``self.xp`` and are bit-identical to inline numpy calls when
    ``xp is numpy``.
    """

    #: Canonical backend name (``"numpy"``, ``"cupy"``).
    name: str = "abstract"
    #: Device class the arrays live on (``"cpu"`` or ``"cuda"``).
    device: str = "cpu"
    #: The array module providing the NEP-18 namespace.
    xp: Any = None

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can run here (never raises)."""
        return False

    # -- allocation / transfer -----------------------------------------
    def empty(self, shape, dtype=np.float64):
        return self.xp.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype=np.float64):
        return self.xp.zeros(shape, dtype=dtype)

    def asarray(self, array, dtype=None):
        """Adopt ``array`` onto this backend (no copy when already native)."""
        return self.xp.asarray(array, dtype=dtype)

    def ascontiguousarray(self, array, dtype=None):
        return self.xp.ascontiguousarray(array, dtype=dtype)

    def to_numpy(self, array) -> np.ndarray:
        """Return a host-side numpy view of ``array``.

        Identity (no copy) for host backends — callers rely on that to
        keep the numpy path allocation-free.
        """
        raise NotImplementedError

    def is_native(self, array) -> bool:
        """Whether ``array`` already lives on this backend."""
        raise NotImplementedError

    def synchronize(self) -> None:
        """Barrier for async devices; no-op on the CPU.  Timing code
        must call this before reading the clock."""

    # -- dense linear algebra ------------------------------------------
    def matmul(self, a, b, out=None):
        return self.xp.matmul(a, b, out=out)

    def einsum(self, subscripts: str, *operands):
        return self.xp.einsum(subscripts, *operands)

    # -- FFT family -----------------------------------------------------
    def rfft2(self, array, axes: Tuple[int, int] = (-2, -1)):
        return self.xp.fft.rfft2(array, axes=axes)

    def irfft2(self, array, s=None, axes: Tuple[int, int] = (-2, -1)):
        return self.xp.fft.irfft2(array, s=s, axes=axes)

    def fft2(self, array, axes: Tuple[int, int] = (-2, -1)):
        return self.xp.fft.fft2(array, axes=axes)

    def ifft2(self, array, axes: Tuple[int, int] = (-2, -1)):
        return self.xp.fft.ifft2(array, axes=axes)

    # -- patch lowering -------------------------------------------------
    def im2col(self, x, kernel, stride, padding):
        return _ops.im2col(self.xp, x, kernel, stride, padding)

    def col2im(self, cols, image_shape, kernel, stride, padding):
        return _ops.col2im(self.xp, cols, image_shape, kernel, stride, padding)

    # -- elementwise helpers the engine calls with out= -----------------
    def conjugate(self, array, out=None):
        return self.xp.conjugate(array, out=out)

    def multiply(self, a, b, out=None):
        return self.xp.multiply(a, b, out=out)

    # -- reductions -----------------------------------------------------
    def sum(self, array, axis=None, keepdims: bool = False):
        return self.xp.sum(array, axis=axis, keepdims=keepdims)

    def mean(self, array, axis=None, keepdims: bool = False):
        return self.xp.mean(array, axis=axis, keepdims=keepdims)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r} device={self.device!r}>"
