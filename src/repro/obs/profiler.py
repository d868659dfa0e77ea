"""Per-op autograd profiler for ``repro.nn``.

When a :class:`Profiler` is active (via the context manager or
:func:`enable`/:func:`disable`), four ops record per-op wall time, call
counts and output bytes for the forward pass and (via
:meth:`wrap_backward`) the backward pass: ``conv2d``, ``deconv2d``
(``conv_transpose2d``), ``matmul`` and ``batch_norm`` (the fused
batch-norm + activation node).  The first three also record FLOP
estimates.  Other tensor ops are not recorded; their forward time is
the self time of the module that calls them.  ``Module.forward`` calls
are timed separately with self-time attribution so nested modules do
not double-count their children.

Render the collected data with :meth:`Profiler.table` /
:meth:`Profiler.module_table` — sorted terminal tables in the style of
``torch.autograd.profiler``:

    with Profiler() as prof:
        loss = model(x).sum()
        loss.backward()
    print(prof.table())

Disabled cost is a single module-global ``None`` check per op (the
``ACTIVE`` read), which the overhead guard in
``tests/obs/test_overhead.py`` keeps under 5%.

FLOP estimates use the standard multiply-accumulate-counts-as-two
convention and are exact for the dense ops (asserted against closed
forms in ``tests/obs/test_profiler.py``):

* ``conv2d``: ``2*N*F*OH*OW*C*KH*KW`` plus ``N*F*OH*OW`` adds for bias;
* ``deconv2d``: ``2*N*C*H*W*F*KH*KW`` plus ``N*F*OH*OW`` bias adds
  (every input pixel scatters a full ``F*KH*KW`` stencil);
* ``matmul``: ``2 * prod(batch) * m * k * n`` over broadcast batch dims.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence


# ----------------------------------------------------------------------
# FLOP formulas (exact closed forms, test-asserted)
# ----------------------------------------------------------------------
def conv2d_flops(n: int, c: int, f: int, oh: int, ow: int, kh: int,
                 kw: int, bias: bool = False) -> int:
    """FLOPs of a dense NCHW conv2d producing an (n, f, oh, ow) output."""
    flops = 2 * n * f * oh * ow * c * kh * kw
    if bias:
        flops += n * f * oh * ow
    return flops


def conv_transpose2d_flops(n: int, c: int, h: int, w: int, f: int,
                           kh: int, kw: int, oh: int = 0, ow: int = 0,
                           bias: bool = False) -> int:
    """FLOPs of a dense transposed conv over an (n, c, h, w) input."""
    flops = 2 * n * c * h * w * f * kh * kw
    if bias:
        flops += n * f * oh * ow
    return flops


def matmul_flops(a_shape: Sequence[int], b_shape: Sequence[int]) -> int:
    """FLOPs of ``a @ b`` with numpy broadcasting semantics."""
    a_shape, b_shape = tuple(a_shape), tuple(b_shape)
    if len(a_shape) == 1:
        a_shape = (1,) + a_shape
    if len(b_shape) == 1:
        b_shape = b_shape + (1,)
    m, k = a_shape[-2], a_shape[-1]
    n = b_shape[-1]
    batch_a, batch_b = a_shape[:-2], b_shape[:-2]
    batch = 1
    for da, db in zip(((1,) * (len(batch_b) - len(batch_a)) + batch_a),
                      ((1,) * (len(batch_a) - len(batch_b)) + batch_b)):
        batch *= max(da, db)
    return 2 * batch * m * k * n


class OpStats:
    """Accumulated statistics for one op name."""

    __slots__ = ("count", "seconds", "flops", "nbytes",
                 "backward_count", "backward_seconds")

    def __init__(self):
        self.count = 0
        self.seconds = 0.0
        self.flops = 0
        self.nbytes = 0
        self.backward_count = 0
        self.backward_seconds = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"count": self.count, "seconds": self.seconds,
                "flops": self.flops, "nbytes": self.nbytes,
                "backward_count": self.backward_count,
                "backward_seconds": self.backward_seconds}


class Profiler:
    """Collects per-op and per-module statistics; thread-safe.

    Use as a context manager (installs itself as the module-global
    :data:`ACTIVE` profiler) or install manually with :func:`enable`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._ops: Dict[str, OpStats] = {}
        self._modules: Dict[str, Dict[str, float]] = {}
        self._local = threading.local()

    # -- op recording ---------------------------------------------------
    def record(self, name: str, seconds: float, flops: int = 0,
               nbytes: int = 0) -> None:
        """Record one forward execution of op ``name``."""
        with self._lock:
            stats = self._ops.get(name)
            if stats is None:
                stats = self._ops[name] = OpStats()
            stats.count += 1
            stats.seconds += seconds
            stats.flops += flops
            stats.nbytes += nbytes

    def record_backward(self, name: str, seconds: float) -> None:
        with self._lock:
            stats = self._ops.get(name)
            if stats is None:
                stats = self._ops[name] = OpStats()
            stats.backward_count += 1
            stats.backward_seconds += seconds

    def wrap_backward(self, name: str,
                      backward: Optional[Callable]) -> Optional[Callable]:
        """Wrap an autograd backward closure so its time is attributed."""
        if backward is None:
            return None

        def timed_backward(*args, **kwargs):
            started = time.perf_counter()
            try:
                return backward(*args, **kwargs)
            finally:
                self.record_backward(name, time.perf_counter() - started)

        return timed_backward

    # -- module timing (self time via a per-thread call stack) ----------
    def _module_stack(self) -> List[List]:
        stack = getattr(self._local, "modules", None)
        if stack is None:
            stack = []
            self._local.modules = stack
        return stack

    def begin_module(self, name: str) -> None:
        # frame: [name, start, child_seconds]
        self._module_stack().append([name, time.perf_counter(), 0.0])

    def end_module(self, name: str) -> None:
        stack = self._module_stack()
        if not stack or stack[-1][0] != name:  # pragma: no cover - guard
            return
        frame = stack.pop()
        elapsed = time.perf_counter() - frame[1]
        if stack:
            stack[-1][2] += elapsed
        with self._lock:
            entry = self._modules.get(name)
            if entry is None:
                entry = self._modules[name] = {
                    "count": 0, "seconds": 0.0, "self_seconds": 0.0}
            entry["count"] += 1
            entry["seconds"] += elapsed
            entry["self_seconds"] += elapsed - frame[2]

    # -- inspection -----------------------------------------------------
    def op_stats(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {name: stats.as_dict()
                    for name, stats in self._ops.items()}

    def module_stats(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {name: dict(entry)
                    for name, entry in self._modules.items()}

    def total_seconds(self) -> float:
        with self._lock:
            return sum(s.seconds + s.backward_seconds
                       for s in self._ops.values())

    def total_flops(self) -> int:
        with self._lock:
            return sum(s.flops for s in self._ops.values())

    # -- rendering ------------------------------------------------------
    def table(self, sort_by: str = "seconds") -> str:
        """Sorted per-op terminal table (forward + backward columns)."""
        ops = self.op_stats()
        rows = sorted(ops.items(), key=lambda kv: -kv[1].get(sort_by, 0.0))
        name_width = max([len(name) for name in ops] + [len("op")])
        header = (f"{'op':<{name_width}}  {'calls':>7}  {'fwd ms':>10}  "
                  f"{'bwd ms':>10}  {'GFLOP':>9}  {'MB':>9}")
        lines = [header, "-" * len(header)]
        for name, stats in rows:
            lines.append(
                f"{name:<{name_width}}  {stats['count']:>7d}  "
                f"{stats['seconds'] * 1e3:>10.3f}  "
                f"{stats['backward_seconds'] * 1e3:>10.3f}  "
                f"{stats['flops'] / 1e9:>9.3f}  "
                f"{stats['nbytes'] / 1e6:>9.3f}")
        lines.append("-" * len(header))
        lines.append(
            f"total op time {self.total_seconds() * 1e3:.3f} ms | "
            f"{self.total_flops() / 1e9:.3f} GFLOP")
        return "\n".join(lines)

    def module_table(self) -> str:
        """Per-module table with inclusive and self time."""
        modules = self.module_stats()
        rows = sorted(modules.items(),
                      key=lambda kv: -kv[1]["self_seconds"])
        name_width = max([len(name) for name in modules] + [len("module")])
        header = (f"{'module':<{name_width}}  {'calls':>7}  "
                  f"{'total ms':>10}  {'self ms':>10}")
        lines = [header, "-" * len(header)]
        for name, entry in rows:
            lines.append(
                f"{name:<{name_width}}  {int(entry['count']):>7d}  "
                f"{entry['seconds'] * 1e3:>10.3f}  "
                f"{entry['self_seconds'] * 1e3:>10.3f}")
        return "\n".join(lines)

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Profiler":
        enable(self)
        return self

    def __exit__(self, *exc_info) -> bool:
        disable()
        return False


# ----------------------------------------------------------------------
# Module-level active profiler — instrumented ops read this directly:
#     prof = _profiler.ACTIVE
#     if prof is not None: ...
# ----------------------------------------------------------------------
ACTIVE: Optional[Profiler] = None

_previous: List[Optional[Profiler]] = []


def enable(profiler: Optional[Profiler] = None) -> Profiler:
    """Install (and return) a profiler as the process-wide active one."""
    global ACTIVE
    if profiler is None:
        profiler = Profiler()
    _previous.append(ACTIVE)
    ACTIVE = profiler
    return profiler


def disable() -> Optional[Profiler]:
    """Uninstall the active profiler and return it."""
    global ACTIVE
    profiler = ACTIVE
    ACTIVE = _previous.pop() if _previous else None
    return profiler


def active() -> Optional[Profiler]:
    return ACTIVE

