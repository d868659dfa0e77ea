"""``repro.nn`` — a from-scratch neural-network substrate on numpy.

The paper implements GAN-OPC on TensorFlow + GPU; this environment has
neither, so the framework itself is reproduced: reverse-mode autograd
(:mod:`repro.nn.tensor`), convolutional primitives
(:mod:`repro.nn.functional`), a module/layer system
(:mod:`repro.nn.modules`), the Adam optimizer (:mod:`repro.nn.optim`) and
checkpointing (:mod:`repro.nn.serialization`).

Quick example::

    import numpy as np
    from repro import nn

    net = nn.Sequential(
        nn.Conv2d(1, 4, 3, padding=1), nn.ReLU(),
        nn.Conv2d(4, 1, 3, padding=1), nn.Sigmoid(),
    )
    opt = nn.Adam(net.parameters(), lr=1e-3)
    x = nn.Tensor(np.random.rand(2, 1, 16, 16))
    loss = nn.functional.mse_loss(net(x), x)
    loss.backward()
    opt.step()
"""

from . import functional
from . import init
from . import utils
from .functional import (bce_loss, conv2d, conv_transpose2d, linear,
                         mse_loss)
from .modules import (BatchNorm2d, Conv2d, ConvTranspose2d, Flatten,
                      LeakyReLU, Linear, Module, Parameter, ReLU, Sequential,
                      Sigmoid, frozen)
from .optim import Adam, clip_grad_norm_, global_grad_norm
from .serialization import CheckpointLoadError, load_state, save_state
from .tensor import (GraphReleasedError, Tensor, concatenate, full, maximum,
                     no_grad, ones, stack, where, zeros)
from .utils import compute_dtype, to_dtype

__all__ = [
    "Tensor", "GraphReleasedError", "no_grad",
    "zeros", "ones", "full", "concatenate", "stack", "where", "maximum",
    "functional", "init", "utils",
    "conv2d", "conv_transpose2d", "linear",
    "mse_loss", "bce_loss",
    "Module", "Parameter", "Sequential", "Linear", "Conv2d",
    "ConvTranspose2d", "BatchNorm2d", "ReLU", "LeakyReLU",
    "Sigmoid", "Flatten", "frozen",
    "Adam", "clip_grad_norm_", "global_grad_norm",
    "save_state", "load_state", "CheckpointLoadError",
    "to_dtype", "compute_dtype",
]
