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

The graph is made of small :class:`_Node` records, not of tensors: a
result that requires grad carries one node holding its backward closure
and its inputs' nodes, and each closure keeps only what its backward
reads.  An intermediate array therefore lives only as long as a closure
needs it or the caller holds its tensor.  :meth:`Tensor.backward`
releases each node right after running it, so the graph is consumed by
the pass; backpropagating through it again raises
:class:`GraphReleasedError` (DESIGN.md §17).
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


class GraphReleasedError(RuntimeError):
    """Raised when :meth:`Tensor.backward` reaches a node that an
    earlier backward pass has already consumed and released."""


class _Node:
    """One recorded op of the graph.

    ``backward`` maps the gradient of the op's result to one gradient
    per input (``None`` where none is needed), in the order of
    ``inputs``.  An input is the node of a non-leaf tensor, a leaf
    tensor that requires grad (it accumulates :attr:`Tensor.grad`), or
    ``None``.  ``grad`` sums the gradients reaching the node during a
    backward pass.  A released node has no closure and no inputs.
    """

    __slots__ = ("backward", "inputs", "grad")

    def __init__(self, backward: Callable, inputs: tuple):
        self.backward = backward
        self.inputs = inputs
        self.grad: Optional[np.ndarray] = None


def _topological(root: _Node) -> list:
    """Nodes reachable from ``root``, inputs before the nodes using them
    (iterative DFS: recursion would overflow on deep conv stacks)."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node.backward is None:
            raise GraphReleasedError(
                "backward() reached part of a graph that an earlier "
                "backward() already released; fold every gradient into "
                "one backward pass or rebuild the graph")
        visited.add(id(node))
        stack.append((node, True))
        for inp in node.inputs:
            if type(inp) is _Node and id(inp) not in visited:
                stack.append((inp, False))
    return order


def _send(input_grads, inputs: tuple) -> None:
    """Deliver one node's input gradients: a leaf accumulates its
    ``.grad``, a node sums what reaches it for its own backward."""
    if input_grads is None:
        return
    if not isinstance(input_grads, tuple):
        input_grads = (input_grads,)
    for inp, grad in zip(inputs, input_grads):
        if inp is None or grad is None:
            continue
        if type(inp) is not _Node:
            inp._accumulate(grad)
        elif inp.grad is None:
            inp.grad = grad
        else:
            inp.grad = inp.grad + grad


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

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 dtype=None, name: Optional[str] = None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None
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
        """Create a result from ``data`` with the given backward.

        The result's node refers to its parents' nodes, or to the
        parents themselves when they are leaves that require grad, in
        order: backward closures return one gradient per parent
        positionally.  The parent tensors are not kept.
        """
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._node = _Node(backward, tuple(
                p._node if p._node is not None
                else p if p.requires_grad else None
                for p in parents))
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # Gradients are retained on leaves only (parameters, inputs with
        # requires_grad=True), mirroring the PyTorch convention and keeping
        # memory bounded on deep conv stacks.  Nodes sum theirs in _send.
        if not self.requires_grad:
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

        Each node is released (closure and inputs dropped) as soon as
        it has run, so the arrays its closure saved are freed during
        the pass.  A second backward through the same graph raises
        :class:`GraphReleasedError`; to combine several objectives,
        sum them and call backward once.
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

        if self._node is None:
            self._accumulate(grad)
            return
        order = _topological(self._node)
        order[-1].grad = grad
        while order:
            # Popped and stripped before its closure runs, so the
            # closure, and every array only it saved, is freed before
            # the next node runs.
            node = order.pop()
            node_grad, backward, inputs = node.grad, node.backward, node.inputs
            node.grad = node.backward = None
            node.inputs = ()
            if node_grad is not None:
                _send(backward(node_grad), inputs)

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
        a_shape, b_shape = self.shape, other.shape

        def backward(grad):
            return (_unbroadcast(grad, a_shape), _unbroadcast(grad, b_shape))

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a_shape, b_shape = self.shape, other.shape

        def backward(grad):
            return (_unbroadcast(grad, a_shape), _unbroadcast(-grad, b_shape))

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data

        def backward(grad):
            return (_unbroadcast(grad * b, a.shape),
                    _unbroadcast(grad * a, b.shape))

        return Tensor._make(a * b, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data

        def backward(grad):
            return (_unbroadcast(grad / b, a.shape),
                    _unbroadcast(-grad * a / (b ** 2), b.shape))

        return Tensor._make(a / b, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        a = self.data
        exponent = float(exponent)

        def backward(grad):
            return (grad * exponent * np.power(a, exponent - 1.0),)

        return Tensor._make(np.power(a, exponent), (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._coerce(other)
        a, b = self.data, other.data

        def backward(grad):
            if a.ndim == 2 and b.ndim == 2:
                return (grad @ b.T, a.T @ grad)
            # Batched matmul: contract over the last two axes, sum the rest.
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        prof = _profiler.ACTIVE
        started = time.perf_counter() if prof is not None else 0.0
        out_data = a @ b
        if prof is not None:
            prof.record("matmul", time.perf_counter() - started,
                        flops=matmul_flops(a.shape, b.shape),
                        nbytes=out_data.nbytes)
            backward = prof.wrap_backward("matmul", backward)
        return Tensor._make(out_data, (self, other), backward)

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
        original = self.shape

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        lead = self.data.shape[:start_dim]
        return self.reshape(lead + (-1,))

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        shape, dtype = self.shape, self.dtype

        def backward(grad):
            full = np.zeros(shape, dtype)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(self.data[index], (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.shape

        def backward(grad):
            if axis is None:
                return (np.broadcast_to(grad, shape).copy(),)
            g = grad
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims),
                            (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[ax] for ax in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self.data
        out_data = a.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            if axis is None:
                mask = (a == out_data)
                g = grad * mask / mask.sum()
                return (np.broadcast_to(g, a.shape).copy(),)
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = (a == expanded)
            g = grad if keepdims else np.expand_dims(grad, axis)
            counts = mask.sum(axis=axis, keepdims=True)
            return ((mask * g / counts),)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities (primitives; layers live in modules/)
    # ------------------------------------------------------------------
    def log(self) -> "Tensor":
        a = self.data

        def backward(grad):
            return (grad / a,)

        return Tensor._make(np.log(a), (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def sigmoid(self) -> "Tensor":
        out_data = stable_sigmoid(self.data)

        def backward(grad):
            return (grad * out_data * (1.0 - out_data),)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        if not 0.0 <= negative_slope <= 1.0:
            raise ValueError(
                f"negative_slope must be in [0, 1], got {negative_slope}")
        a = self.data
        # 1 where positive, else the slope, in the input dtype (a python
        # float would promote a float32 graph to double).
        scale = np.maximum(a > 0, a.dtype.type(negative_slope))

        def backward(grad):
            return (grad * scale,)

        return Tensor._make(a * scale, (self,), backward)

    def clip(self, low: Optional[float], high: Optional[float]) -> "Tensor":
        a = self.data
        out_data = np.clip(a, low, high)
        inside = np.ones_like(a, dtype=bool)
        if low is not None:
            inside &= a >= low
        if high is not None:
            inside &= a <= high

        def backward(grad):
            return (grad * inside,)

        return Tensor._make(out_data, (self,), backward)


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
    tensors = tuple(tensors)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(grad):
        slices = []
        for i in range(len(offsets) - 1):
            idx = [slice(None)] * grad.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            slices.append(grad[tuple(idx)])
        return tuple(slices)

    return Tensor._make(np.concatenate([t.data for t in tensors], axis=axis),
                        tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    expanded = [t.reshape(t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors]
    return concatenate(expanded, axis=axis)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection; ``condition`` is a plain boolean array."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    a_shape, b_shape = a.shape, b.shape

    def backward(grad):
        return (_unbroadcast(grad * cond, a_shape),
                _unbroadcast(grad * (~cond), b_shape))

    return Tensor._make(np.where(cond, a.data, b.data), (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    take_a = a.data >= b.data
    a_shape, b_shape = a.shape, b.shape

    def backward(grad):
        return (_unbroadcast(grad * take_a, a_shape),
                _unbroadcast(grad * (~take_a), b_shape))

    return Tensor._make(np.maximum(a.data, b.data), (a, b), backward)
