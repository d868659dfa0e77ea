"""Layer/module system for the ``repro.nn`` substrate.

A minimal but complete ``Module`` hierarchy in the PyTorch idiom: modules
own :class:`Parameter` leaves and child modules, expose ``parameters()``
iteration for optimizers, ``state_dict``/``load_state_dict`` for
checkpointing, and ``train()``/``eval()`` mode switching (batch-norm
depends on it).

The GAN-OPC networks (``repro.core.generator`` / ``discriminator``) are
compositions of the layers defined here.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import profiler as _profiler

from . import functional as F
from . import init
from .tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a trainable leaf of a module."""

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- attribute magic: registering on assignment --------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, array: np.ndarray) -> None:
        """Register non-trainable state (e.g. batch-norm running stats)."""
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    # -- traversal ------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix + mod_name + ".")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix + mod_name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count (for reporting model size)."""
        return sum(p.size for p in self.parameters())

    # -- modes ----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # -- checkpointing ----------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: b.copy() for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}")
        for name, param in own_params.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: module {param.data.shape} "
                    f"vs state {state[name].shape}")
            param.data = state[name].astype(param.data.dtype, copy=True)
        for name, buf in own_buffers.items():
            buf[...] = state[name]

    # -- call protocol ----------------------------------------------------
    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        prof = _profiler.ACTIVE
        if prof is None:
            return self.forward(*args, **kwargs)
        name = type(self).__name__
        prof.begin_module(name)
        try:
            return self.forward(*args, **kwargs)
        finally:
            prof.end_module(name)


@contextmanager
def frozen(module: Module) -> Iterator[Module]:
    """Within the block, ``module``'s parameters do not require grad:
    backward through it still reaches its input but computes no weight
    gradients."""
    params = [param for param in module.parameters() if param.requires_grad]
    for param in params:
        param.requires_grad = False
    try:
        yield module
    finally:
        for param in params:
            param.requires_grad = True


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = []
        for index, layer in enumerate(layers):
            self._modules[str(index)] = layer
            self.layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


# ----------------------------------------------------------------------
# Core layers
# ----------------------------------------------------------------------
class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng,
                                                     a=np.sqrt(5.0)))
        if bias:
            self.bias = Parameter(init.uniform_bias((out_features,), rng, in_features))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution layer over NCHW tensors."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: F.IntPair,
                 stride: F.IntPair = 1, padding: F.IntPair = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kh, kw), rng,
                                 a=np.sqrt(5.0)))
        if bias:
            self.bias = Parameter(
                init.uniform_bias((out_channels,), rng, in_channels * kh * kw))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class ConvTranspose2d(Module):
    """2-D transposed convolution (the decoder half of the generator)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: F.IntPair,
                 stride: F.IntPair = 1, padding: F.IntPair = 0,
                 output_padding: F.IntPair = 0, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        self.output_padding = F._pair(output_padding)
        self.weight = Parameter(
            init.kaiming_uniform((in_channels, out_channels, kh, kw), rng,
                                 a=np.sqrt(5.0)))
        if bias:
            self.bias = Parameter(
                init.uniform_bias((out_channels,), rng, in_channels * kh * kw))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(x, self.weight, self.bias, self.stride,
                                  self.padding, self.output_padding)


class BatchNorm2d(Module):
    """Batch normalization over channels of NCHW input.

    ``negative_slope`` fuses the activation that follows into the same
    autograd node: ``None`` for none, ``0`` for ReLU, ``s`` for
    LeakyReLU(``s``) (see :func:`~repro.nn.functional.batch_norm`).
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5,
                 negative_slope: Optional[float] = None):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.negative_slope = negative_slope
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, self.training, self.momentum,
                            self.eps, self.negative_slope)


class BatchNorm1d(BatchNorm2d):
    """Batch normalization over features of NC input (shares implementation)."""


# ----------------------------------------------------------------------
# Activations / utility layers
# ----------------------------------------------------------------------
class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Flatten(Module):
    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(self.start_dim)


class UpsampleNearest2d(Module):
    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_nearest2d(x, self.scale)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)
