"""The optimizer and gradient clipping for ``repro.nn``.

Algorithm 1 of the paper writes the update as mini-batch gradient
descent ``W <- W - (lambda/m) * dW``; the training loops use
:class:`Adam`, as the released GAN-OPC code and most follow-ups (e.g.
OpenILT) do, for stability at small batch sizes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from .modules import Parameter


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) with bias correction, over a
    list of :class:`Parameter`."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.grad = None

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for i, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self._m[i] is None:
                self._m[i] = np.zeros_like(param.data)
                self._v[i] = np.zeros_like(param.data)
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad ** 2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict:
        return {"lr": self.lr, "beta1": self.beta1, "beta2": self.beta2,
                "eps": self.eps, "weight_decay": self.weight_decay,
                "step_count": self._step_count,
                "m": [None if m is None else m.copy() for m in self._m],
                "v": [None if v is None else v.copy() for v in self._v]}

    def load_state_dict(self, state: Dict) -> None:
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self._step_count = int(state["step_count"])
        self._m = [None if m is None else m.copy() for m in state["m"]]
        self._v = [None if v is None else v.copy() for v in state["v"]]

    def to_dtype(self, dtype) -> "Adam":
        """Cast the moment buffers to ``dtype`` in place.
        ``nn.to_dtype`` calls this for every optimizer it is handed, so
        a module cast mid-run stays dtype-consistent with a freshly
        built one.
        """
        dtype = np.dtype(dtype)
        self._m = [None if m is None else m.astype(dtype, copy=False)
                   for m in self._m]
        self._v = [None if v is None else v.astype(dtype, copy=False)
                   for v in self._v]
        return self


def global_grad_norm(parameters: Iterable[Parameter]) -> float:
    """Euclidean norm of all gradients concatenated into one vector.

    Parameters without a gradient are ignored; an empty gradient set
    has norm 0.  The norm is NaN/Inf whenever any gradient entry is,
    which is what the divergence guards key off.
    """
    total = 0.0
    for param in parameters:
        if param.grad is not None:
            grad = param.grad
            total += float(np.dot(grad.ravel(), grad.ravel()))
    return float(np.sqrt(total))


def clip_grad_norm_(parameters: Iterable[Parameter],
                    max_norm: Optional[float] = None) -> float:
    """Scale gradients in place so their global norm is <= ``max_norm``.

    Returns the *pre-clip* global norm.  ``max_norm=None`` only
    measures; a non-finite norm is returned unclipped so callers can
    apply their divergence policy instead of silently zeroing updates.
    """
    params = [p for p in parameters if p.grad is not None]
    norm = global_grad_norm(params)
    if (max_norm is not None and np.isfinite(norm) and norm > max_norm):
        scale = max_norm / (norm + 1e-12)
        for param in params:
            param.grad = param.grad * scale
    return norm
