"""Layer attribution for the traced benchmark run.

The benchmark never edits the program: it wraps the public entry points
of each layer from outside, for the traced run only, and restores the
originals afterwards.  Each wrapped call is a span.  Only the outermost
call of a layer is counted (a nested call of the same layer is part of
its caller's span), and a layer's self time is its span minus the spans
of other layers it contains.  Time outside every span is the
*unattributed* remainder; a sampling thread names the program function
that remainder was spent in.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names in report order.
LAYERS = ("litho.gradient", "litho.forward", "ilt", "nn.forward", "nn.conv",
          "nn.backward", "nn.generate", "optim", "metrics", "telemetry",
          "pool", "tiling.stitch")


@dataclass
class LayerStats:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0
    #: layer-specific work counts (masks, iterations, bytes, ...)
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value


def _batch_size(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) == 3 else 1


class LayerTracer:
    """Wraps layer entry points; use as a context manager."""

    def __init__(self):
        self.stats = {name: LayerStats() for name in LAYERS}
        self.covered_seconds = 0.0
        self._stack: List[list] = []
        self._active = {name: False for name in LAYERS}
        self._patches: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------
    @property
    def in_layer(self) -> bool:
        return bool(self._stack)

    def _wrap(self, original: Callable, layer: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        tracer = self
        stats = self.stats[layer]

        def wrapper(*args, **kwargs):
            if tracer._active[layer]:
                return original(*args, **kwargs)
            token = before(args) if before is not None else None
            tracer._active[layer] = True
            frame = [layer, 0.0]
            tracer._stack.append(frame)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                tracer._stack.pop()
                tracer._active[layer] = False
                stats.seconds += elapsed
                stats.self_seconds += elapsed - frame[1]
                stats.calls += 1
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                else:
                    tracer.covered_seconds += elapsed
            if after is not None:
                after(stats, args, result, token)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def patch_method(self, owner: type, name: str, layer: str,
                     before=None, after=None) -> None:
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self._wrap(original, layer, before, after))

    def patch_function(self, function: Callable, layer: str,
                       before=None, after=None) -> None:
        """Replace ``function`` wherever a ``repro`` module binds it."""
        wrapper = self._wrap(function, layer, before, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attr, function))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        install(self)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reporting -------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat totals: ``<layer>.s``, ``<layer>.self_s``,
        ``<layer>.calls`` and ``<layer>.<count>``."""
        flat = {"covered_s": self.covered_seconds}
        for layer, stats in self.stats.items():
            flat[f"{layer}.s"] = stats.seconds
            flat[f"{layer}.self_s"] = stats.self_seconds
            flat[f"{layer}.calls"] = float(stats.calls)
            for name, value in stats.counts.items():
                flat[f"{layer}.{name}"] = value
        return flat


def install(tracer: LayerTracer) -> None:
    """Wrap every layer entry point the benchmark attributes time to."""
    from repro import nn
    from repro.core.generator import MaskGenerator
    from repro.ilt.optimizer import ILTOptimizer
    from repro.litho.engine import LithoEngine
    from repro.metrics.report import evaluate_mask
    from repro.nn import functional
    from repro.parallel.pool import WorkerPool
    from repro.runtime.telemetry import RunLogger
    from repro.tiling.stitch import stitch_feathered

    def count_masks(stats, args, result, token):
        stats.add("masks", _batch_size(args[1]))

    for name in ("error_and_gradient", "error_and_gradient_wrt_mask",
                 "condition_error_and_gradient",
                 "condition_error_and_gradient_wrt_mask"):
        tracer.patch_method(LithoEngine, name, "litho.gradient",
                            after=count_masks)
    for name in ("aerial", "wafer", "binarized_score", "condition_wafers"):
        tracer.patch_method(LithoEngine, name, "litho.forward",
                            after=count_masks)

    def count_iterations(stats, args, result, token):
        stats.add("iterations", result.iterations)

    tracer.patch_method(ILTOptimizer, "optimize", "ilt",
                        after=count_iterations)
    tracer.patch_method(nn.Module, "__call__", "nn.forward")
    tracer.patch_function(functional.conv2d, "nn.conv")
    tracer.patch_function(functional.conv_transpose2d, "nn.conv")
    tracer.patch_method(nn.Tensor, "backward", "nn.backward")
    tracer.patch_method(MaskGenerator, "generate", "nn.generate")
    tracer.patch_method(nn.Adam, "step", "optim")
    tracer.patch_function(evaluate_mask, "metrics")

    def file_size(args):
        return os.path.getsize(args[0].path)

    def count_bytes(stats, args, result, size_before):
        stats.add("bytes", os.path.getsize(args[0].path) - size_before)

    tracer.patch_method(RunLogger, "event", "telemetry", before=file_size,
                        after=count_bytes)

    def pool_before(args):
        pool = args[0]
        return (pool.stats.total_busy_seconds,
                dict(pool.stats.fleet.engine_totals))

    def pool_after(stats, args, result, token):
        pool = args[0]
        busy_before, engine_before = token
        stats.add("tasks", len(result))
        stats.add("busy_s", pool.stats.total_busy_seconds - busy_before)
        stats.add("workers", pool.workers)
        # Engine work inside the workers is read from the fleet totals
        # the pool ships back, not wrapped.
        for key, value in pool.stats.fleet.engine_totals.items():
            stats.add(f"fleet.{key}", value - engine_before.get(key, 0.0))

    tracer.patch_method(WorkerPool, "map", "pool", before=pool_before,
                        after=pool_after)
    tracer.patch_function(stitch_feathered, "tiling.stitch")


class UncoveredSampler:
    """Samples the main thread while no layer span is open.

    Each sample records the innermost frame that belongs to the program
    (``src/repro``), so the largest uncovered call can be named; samples
    in the benchmark's own code are not counted.
    """

    def __init__(self, tracer: LayerTracer, source_root: str,
                 interval: float = 0.005):
        self.tracer = tracer
        self.source_root = os.path.abspath(source_root) + os.sep
        self.interval = interval
        self.samples: Counter = Counter()
        self._main = threading.main_thread().ident
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _name(self, frame) -> Optional[str]:
        while frame is not None:
            path = os.path.abspath(frame.f_code.co_filename)
            if path.startswith(self.source_root):
                module = os.path.relpath(path, self.source_root)[:-3]
                code = frame.f_code
                return (module.replace(os.sep, ".") + "."
                        + getattr(code, "co_qualname", code.co_name))
            frame = frame.f_back
        return None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if self.tracer.in_layer:
                continue
            name = self._name(sys._current_frames().get(self._main))
            if name is not None:
                self.samples[name] += 1

    def __enter__(self) -> "UncoveredSampler":
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def largest(self) -> Optional[Tuple[str, float]]:
        """``(function, share of uncovered samples)`` or ``None``."""
        total = sum(self.samples.values())
        if not total:
            return None
        name, count = self.samples.most_common(1)[0]
        return name, count / total
