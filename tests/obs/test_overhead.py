"""Disabled-instrumentation overhead guard.

The acceptance bar is deterministic rather than a noisy A/B run: we
measure the marginal cost of one *disabled* instrumentation point (the
``trace.span`` global-None check plus the shared null context manager)
and compare the per-forward instrumentation budget against the engine
forward time itself.  An engine forward opens two spans
(``litho.forward`` + ``litho.spectrum``) and reads the profiler global
zero times (the engine is not a tensor op), so its disabled overhead
is two null spans plus two stats counter bumps.

The bound is deliberately generous (25%): the real budget is ~1%, but
both sides of the ratio are sub-microsecond timings that CI scheduling
noise can easily triple, and the guard only needs to catch
order-of-magnitude regressions (e.g. a span that starts allocating or
formatting while disabled).
"""

import time

import numpy as np

from repro.litho import LithoEngine
from repro.obs import profiler, trace

# Spans opened by one engine.aerial call while tracing is disabled.
SPANS_PER_FORWARD = 2


def _best_of(fn, repeats=7):
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _disabled_span_cost(iterations=20000):
    assert not trace.is_enabled()

    def loop():
        for _ in range(iterations):
            with trace.span("overhead-probe"):
                pass

    return _best_of(loop, repeats=5) / iterations


def test_disabled_span_cost_is_small_versus_engine_forward(kernels64):
    engine = LithoEngine.for_kernels(kernels64)
    mask = np.zeros((64, 64))
    mask[16:48, 16:48] = 1.0

    per_span = _disabled_span_cost()
    forward = _best_of(lambda: engine.aerial(mask))

    overhead = SPANS_PER_FORWARD * per_span
    assert overhead < 0.25 * forward, (
        f"disabled instrumentation costs {overhead * 1e6:.2f} us per "
        f"forward vs forward time {forward * 1e6:.2f} us "
        f"({100.0 * overhead / forward:.2f}%)")


def test_disabled_profiler_check_is_small_versus_matmul():
    """The per-op profiler guard is a single global read."""
    assert profiler.ACTIVE is None
    a = np.random.default_rng(0).random((64, 64))

    iterations = 20000

    def guard_loop():
        for _ in range(iterations):
            if profiler.ACTIVE is not None:  # pragma: no cover
                raise AssertionError
    per_check = _best_of(guard_loop, repeats=5) / iterations

    matmul = _best_of(lambda: a @ a)
    assert per_check < 0.25 * matmul


def test_null_span_allocates_nothing():
    first = trace.span("a")
    second = trace.span("b", key=1)
    assert first is second is trace._NULL_SPAN


def test_pool_task_bookkeeping_under_5pct_of_forward(kernels64):
    """Worker-pool disabled-telemetry overhead guard.

    With tracing off, ``_run_task`` still does per-task bookkeeping: a
    snapshot of the process-wide litho counters before the task, their
    delta after it, and condensing that delta into a
    :class:`TaskTelemetry`.  Measured deterministically in-process
    (the same code the worker runs), it must stay under 5% of one
    64 px engine forward — the smallest unit of real work a task does.
    """
    from repro.obs.aggregate import capture_task

    engine = LithoEngine.for_kernels(kernels64)
    mask = np.zeros((64, 64))
    mask[16:48, 16:48] = 1.0
    engine.aerial(mask)  # warm

    def bookkeeping():
        litho = LithoEngine.stats
        before = litho.snapshot()
        capture_task(None, None, litho.delta(before), 0.0)

    iterations = 2000

    def loop():
        for _ in range(iterations):
            bookkeeping()

    per_task = _best_of(loop, repeats=5) / iterations
    forward = _best_of(lambda: engine.aerial(mask))
    assert per_task < 0.05 * forward, (
        f"pool task bookkeeping costs {per_task * 1e6:.2f} us vs forward "
        f"{forward * 1e6:.2f} us ({100.0 * per_task / forward:.2f}%)")
