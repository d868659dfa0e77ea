"""``repro.nn`` — a from-scratch neural-network substrate on numpy.

The paper implements GAN-OPC on TensorFlow + GPU; this environment has
neither, so the framework itself is reproduced: reverse-mode autograd
(:mod:`repro.nn.tensor`), convolutional primitives
(:mod:`repro.nn.functional`), a module/layer system
(:mod:`repro.nn.modules`), optimizers (:mod:`repro.nn.optim`) and
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
from .functional import (bce_loss, bce_with_logits, conv2d,
                         conv_transpose2d, l1_loss, linear, mse_loss,
                         softmax, upsample_nearest2d)
from .modules import (BatchNorm1d, BatchNorm2d, Conv2d, ConvTranspose2d,
                      Dropout, Flatten, LeakyReLU, Linear, Module, Parameter,
                      ReLU, Sequential, Sigmoid, Tanh, UpsampleNearest2d,
                      frozen)
from .optim import (SGD, Adam, ExponentialLR, Optimizer, StepLR,
                    clip_grad_norm_, global_grad_norm)
from .serialization import CheckpointLoadError, load_state, save_state
from .tensor import (GraphReleasedError, Tensor, concatenate, full,
                     is_grad_enabled, maximum, no_grad, ones, pad2d, stack,
                     where, zeros)
from .utils import compute_dtype, to_dtype

__all__ = [
    "Tensor", "GraphReleasedError", "no_grad", "is_grad_enabled",
    "zeros", "ones", "full", "concatenate", "stack", "where", "maximum",
    "pad2d",
    "functional", "init", "utils",
    "conv2d", "conv_transpose2d", "linear", "upsample_nearest2d",
    "mse_loss", "l1_loss", "bce_loss", "bce_with_logits", "softmax",
    "Module", "Parameter", "Sequential", "Linear", "Conv2d",
    "ConvTranspose2d", "BatchNorm1d", "BatchNorm2d", "ReLU", "LeakyReLU",
    "Sigmoid", "Tanh", "Flatten", "UpsampleNearest2d", "Dropout", "frozen",
    "Optimizer", "SGD", "Adam", "StepLR", "ExponentialLR",
    "clip_grad_norm_", "global_grad_norm",
    "save_state", "load_state", "CheckpointLoadError",
    "to_dtype", "compute_dtype",
]
