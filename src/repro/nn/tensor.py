"""Reverse-mode automatic differentiation on numpy arrays.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` neural-network substrate.  A ``Tensor`` wraps a numpy
``ndarray`` and records the operations applied to it in a dynamic
computation graph; calling :meth:`Tensor.backward` traverses the graph in
reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``.

The design intentionally mirrors the small, explicit core of frameworks
like PyTorch so the GAN-OPC training loops (Algorithms 1 and 2 of the
paper) read exactly like their pseudo-code:

>>> from repro.nn import Tensor
>>> w = Tensor([[2.0]], requires_grad=True)
>>> x = Tensor([[3.0]])
>>> loss = (w * x).sum()
>>> loss.backward()
>>> float(w.grad[0, 0])
3.0

Only float64/float32 tensors participate in gradients; gradients are kept
as plain numpy arrays in :attr:`Tensor.grad`.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.numerics import stable_sigmoid
from repro.obs import profiler as _profiler
from repro.obs.profiler import matmul_flops

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction.

    Used in inference paths (e.g. the GAN-OPC mask generation stage of
    Figure 6) where gradients are not needed, to save memory and time.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient information."""
    return _GRAD_ENABLED


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(data, np.ndarray):
        array = data
    else:
        array = np.asarray(data)
    if dtype is not None:
        array = array.astype(dtype, copy=False)
    elif array.dtype not in (np.float32, np.float64):
        array = array.astype(np.float64)
    return array


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    When a forward op broadcast a small tensor up to a larger shape, the
    corresponding backward pass must sum the incoming gradient over the
    broadcast axes so the gradient matches the original tensor's shape.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array contents; anything ``np.asarray`` accepts.
    requires_grad:
        If true, gradients flowing into this tensor during
        :meth:`backward` are accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 dtype=None, name: Optional[str] = None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a graph node from ``data`` with the given backward."""
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            # Parents are kept in order: backward closures return one
            # gradient per parent positionally.
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # Gradients are retained on leaves only (parameters, inputs with
        # requires_grad=True), mirroring the PyTorch convention and keeping
        # memory bounded on deep conv stacks.
        if not self.requires_grad or self._backward is not None:
            return
        if self.grad is None:
            self.grad = np.array(grad, copy=True)
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (only valid, as usual, for scalars — a
            deliberate guard against silently wrong vector objectives).
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only "
                    "supported for scalar tensors; got shape "
                    f"{self.data.shape}")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}")

        # Topological order via iterative DFS (recursion would overflow on
        # deep conv stacks).
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): grad}
        self._accumulate(grad)
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None or node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            if parent_grads is None:
                continue
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None:
                    continue
                parent._accumulate(pgrad)
                if parent._backward is not None:
                    if id(parent) in grads:
                        grads[id(parent)] = grads[id(parent)] + pgrad
                    else:
                        grads[id(parent)] = pgrad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: ArrayLike) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        # Scalars adopt this tensor's dtype: a bare python float wrapped
        # via np.asarray becomes a float64 0-d array, which under NEP 50
        # promotion would silently drag a float32 graph up to double.
        # (For float64 tensors this cast is the identity, so the f64
        # path stays bit-exact.)
        if np.isscalar(other):
            return Tensor(np.asarray(other, dtype=self.data.dtype))
        return Tensor(other)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            return (_unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape))

        return Tensor._make(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            return (_unbroadcast(grad, a.shape), _unbroadcast(-grad, b.shape))

        return Tensor._make(a.data - b.data, (a, b), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            return (_unbroadcast(grad * b.data, a.shape),
                    _unbroadcast(grad * a.data, b.shape))

        return Tensor._make(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            return (_unbroadcast(grad / b.data, a.shape),
                    _unbroadcast(-grad * a.data / (b.data ** 2), b.shape))

        return Tensor._make(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        a = self

        def backward(grad):
            return (-grad,)

        return Tensor._make(-a.data, (a,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        a = self
        exponent = float(exponent)

        def backward(grad):
            return (grad * exponent * np.power(a.data, exponent - 1.0),)

        return Tensor._make(np.power(a.data, exponent), (a,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def backward(grad):
            if a.data.ndim == 2 and b.data.ndim == 2:
                return (grad @ b.data.T, a.data.T @ grad)
            # Batched matmul: contract over the last two axes, sum the rest.
            ga = grad @ np.swapaxes(b.data, -1, -2)
            gb = np.swapaxes(a.data, -1, -2) @ grad
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        prof = _profiler.ACTIVE
        started = time.perf_counter() if prof is not None else 0.0
        out_data = a.data @ b.data
        if prof is not None:
            prof.record("matmul", time.perf_counter() - started,
                        flops=matmul_flops(a.data.shape, b.data.shape),
                        nbytes=out_data.nbytes)
            backward = prof.wrap_backward("matmul", backward)
        return Tensor._make(out_data, (a, b), backward)

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return plain arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data >= other

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data <= other

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        original = a.data.shape

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(a.data.reshape(shape), (a,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        lead = self.data.shape[:start_dim]
        return self.reshape(lead + (-1,))

    def transpose(self, *axes) -> "Tensor":
        a = self
        if not axes:
            axes = tuple(reversed(range(a.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor._make(a.data.transpose(axes), (a,), backward)

    def __getitem__(self, index) -> "Tensor":
        a = self

        def backward(grad):
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(a.data[index], (a,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self

        def backward(grad):
            if axis is None:
                return (np.broadcast_to(grad, a.data.shape).copy(),)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.data.shape).copy(),)

        return Tensor._make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[ax] for ax in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if axis is None:
                mask = (a.data == out_data)
                g = grad * mask / mask.sum()
                return (np.broadcast_to(g, a.data.shape).copy(),)
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = (a.data == expanded)
            g = grad if keepdims else np.expand_dims(grad, axis)
            counts = mask.sum(axis=axis, keepdims=True)
            return ((mask * g / counts),)

        return Tensor._make(out_data, (a,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities (primitives; layers live in modules/)
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)

        def backward(grad):
            return (grad * out_data,)

        return Tensor._make(out_data, (a,), backward)

    def log(self) -> "Tensor":
        a = self

        def backward(grad):
            return (grad / a.data,)

        return Tensor._make(np.log(a.data), (a,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        a = self

        def backward(grad):
            return (grad * np.sign(a.data),)

        return Tensor._make(np.abs(a.data), (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        out_data = stable_sigmoid(a.data)

        def backward(grad):
            return (grad * out_data * (1.0 - out_data),)

        return Tensor._make(out_data, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)

        def backward(grad):
            return (grad * (1.0 - out_data ** 2),)

        return Tensor._make(out_data, (a,), backward)

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(a.data * mask, (a,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        if not 0.0 <= negative_slope <= 1.0:
            raise ValueError(
                f"negative_slope must be in [0, 1], got {negative_slope}")
        a = self
        # 1 where positive, else the slope, in the input dtype (a python
        # float would promote a float32 graph to double).
        scale = np.maximum(a.data > 0, a.data.dtype.type(negative_slope))

        def backward(grad):
            return (grad * scale,)

        return Tensor._make(a.data * scale, (a,), backward)

    def clip(self, low: Optional[float], high: Optional[float]) -> "Tensor":
        a = self
        out_data = np.clip(a.data, low, high)
        inside = np.ones_like(a.data, dtype=bool)
        if low is not None:
            inside &= a.data >= low
        if high is not None:
            inside &= a.data <= high

        def backward(grad):
            return (grad * inside,)

        return Tensor._make(out_data, (a,), backward)


# ----------------------------------------------------------------------
# Free-function constructors and graph ops used across the package
# ----------------------------------------------------------------------
def zeros(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False,
         dtype=None) -> Tensor:
    return Tensor(np.full(shape, float(value), dtype=dtype),
                  requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support.

    The GAN-OPC discriminator consumes *pairs* ``(Z_t, M)`` stacked along
    the channel axis (Section 3.2 of the paper); this op makes that pairing
    differentiable with respect to the generated mask.
    """
    tensors = list(tensors)
    arrays = [t.data for t in tensors]
    sizes = [a.shape[axis] for a in arrays]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        slices = []
        for i in range(len(arrays)):
            idx = [slice(None)] * grad.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            slices.append(grad[tuple(idx)])
        return tuple(slices)

    return Tensor._make(np.concatenate(arrays, axis=axis), tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    expanded = [t.reshape(t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors]
    return concatenate(expanded, axis=axis)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection; ``condition`` is a plain boolean array."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)

    def backward(grad):
        return (_unbroadcast(grad * cond, a.shape),
                _unbroadcast(grad * (~cond), b.shape))

    return Tensor._make(np.where(cond, a.data, b.data), (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    take_a = a.data >= b.data

    def backward(grad):
        return (_unbroadcast(grad * take_a, a.shape),
                _unbroadcast(grad * (~take_a), b.shape))

    return Tensor._make(np.maximum(a.data, b.data), (a, b), backward)


def pad2d(x: Tensor, padding: Tuple[int, int]) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    ph, pw = padding
    if ph == 0 and pw == 0:
        return x
    a = x
    pads = [(0, 0)] * (x.ndim - 2) + [(ph, ph), (pw, pw)]
    out_data = np.pad(a.data, pads)

    def backward(grad):
        idx = (Ellipsis, slice(ph, grad.shape[-2] - ph), slice(pw, grad.shape[-1] - pw))
        return (grad[idx],)

    return Tensor._make(out_data, (a,), backward)
