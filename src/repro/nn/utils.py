"""Precision utilities: cast a module to a dtype and read the dtype it
computes in.  (Gradient clipping is :func:`repro.nn.optim.clip_grad_norm_`.)
"""

from __future__ import annotations

import numpy as np

from .modules import Module


def to_dtype(module: Module, dtype, optimizers=()) -> Module:
    """Cast every parameter, gradient and buffer of ``module`` (and its
    submodules) to ``dtype``, in place.  Returns the module.

    This is the nn half of the engine's precision mode: casting the
    generator to ``float32`` makes every conv/deconv GEMM run in
    single precision, matching an f32 :class:`~repro.litho.LithoEngine`
    end to end.

    ``optimizers`` takes any optimizers already bound to the module's
    parameters; their per-parameter state (Adam moments)
    is cast alongside via ``Optimizer.to_dtype``.  Without this, a
    module cast after its optimizer has stepped would keep f64 moment
    buffers, and every subsequent update would silently promote the
    arithmetic back to double — the resumed-vs-fresh dtype
    inconsistency the checkpoint round-trip tests pin down.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"to_dtype supports float32/float64, got {dtype}")
    for sub in module.modules():
        for name, param in sub._parameters.items():
            param.data = param.data.astype(dtype, copy=False)
            if param.grad is not None:
                param.grad = param.grad.astype(dtype, copy=False)
        for name, buf in list(sub._buffers.items()):
            # re-register so both the dict entry and the instance
            # attribute point at the cast array
            sub.register_buffer(name, buf.astype(dtype, copy=False))
    for optimizer in optimizers:
        optimizer.to_dtype(dtype)
    return module


def compute_dtype(module: Module) -> np.dtype:
    """The dtype a module computes in — the dtype of its first
    parameter (all parameters share one dtype after ``to_dtype``).

    Trainers use this to cast incoming target/label batches before
    wrapping them in :class:`~repro.nn.Tensor`: feeding float64 data
    into a float32 network silently promotes every GEMM back to double
    (numpy's ``result_type`` rules), which defeats the precision mode.
    A parameter-less module computes in float64.
    """
    for param in module.parameters():
        return np.dtype(param.data.dtype)
    return np.dtype(np.float64)
