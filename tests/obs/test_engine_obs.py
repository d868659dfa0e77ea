"""Engine instrumentation reconciliation (the double-count fix).

The adjoint path runs a full forward pipeline internally; before the
metrics unification that nested forward bumped ``forward_*`` too, so
forward + gradient stats overlapped.  These tests pin the fixed
semantics: span counts and stats counters reconcile 1:1, and the
nested forward is attributed to ``gradient_*`` only.
"""

import numpy as np
import pytest

from repro.litho import LithoEngine
from repro.obs import trace


@pytest.fixture()
def engine(kernels32):
    return LithoEngine.for_kernels(kernels32)


def _masks(batch):
    rng = np.random.default_rng(3)
    return np.clip(rng.random((batch, 32, 32)) + 0.2, 0.0, 1.0)


def _targets(batch):
    rng = np.random.default_rng(4)
    return (rng.random((batch, 32, 32)) > 0.7).astype(float)


def _span_count(tracer, name):
    return sum(1 for s in tracer.spans() if s.name == name)


class TestSpanStatsReconciliation:
    def test_forward_spans_match_forward_calls(self, engine):
        before = engine.stats.snapshot()
        with trace.tracing() as tracer:
            engine.aerial(_masks(1)[0])
            engine.aerial(_masks(4))
        delta = engine.stats.delta(before)
        assert _span_count(tracer, "litho.forward") == 2
        assert delta["forward_calls"] == 2
        assert delta["forward_masks"] == 5

    def test_adjoint_spans_match_gradient_calls(self, engine):
        before = engine.stats.snapshot()
        with trace.tracing() as tracer:
            engine.error_and_gradient_wrt_mask(_masks(2), _targets(2))
        delta = engine.stats.delta(before)
        assert _span_count(tracer, "litho.adjoint") == 1
        assert delta["gradient_calls"] == 1
        assert delta["gradient_masks"] == 2

    def test_adjoint_does_not_double_count_forward(self, engine):
        """The nested forward inside the adjoint is gradient work."""
        before = engine.stats.snapshot()
        with trace.tracing() as tracer:
            engine.error_and_gradient_wrt_mask(_masks(2), _targets(2))
        delta = engine.stats.delta(before)
        assert delta["forward_calls"] == 0
        assert delta["forward_seconds"] == 0.0
        assert _span_count(tracer, "litho.forward") == 0

    def test_chunked_adjoint_is_one_call_one_span(self, engine):
        batch = engine._nominal.chunk * 2 + 1
        before = engine.stats.snapshot()
        with trace.tracing() as tracer:
            errors, grads = engine.error_and_gradient_wrt_mask(
                _masks(batch), _targets(batch))
        assert errors.shape == (batch,)
        assert grads.shape == (batch, 32, 32)
        delta = engine.stats.delta(before)
        assert delta["gradient_calls"] == 1
        assert delta["gradient_masks"] == batch
        assert delta["forward_calls"] == 0
        assert _span_count(tracer, "litho.adjoint") == 1
        assert _span_count(tracer, "litho.forward") == 0

    def test_spectrum_spans_nest_under_pipeline_spans(self, engine):
        with trace.tracing() as tracer:
            engine.aerial(_masks(1))
        spans = {s.name: s for s in tracer.spans()}
        assert spans["litho.spectrum"].depth == \
            spans["litho.forward"].depth + 1

    def test_seconds_partition_engine_time(self, engine):
        before = engine.stats.snapshot()
        engine.aerial(_masks(2))
        engine.error_and_gradient_wrt_mask(_masks(2), _targets(2))
        delta = engine.stats.delta(before)
        assert delta["forward_seconds"] > 0.0
        assert delta["gradient_seconds"] > 0.0

    def test_results_unchanged_by_tracing(self, engine):
        masks, targets = _masks(2), _targets(2)
        plain_err, plain_grad = engine.error_and_gradient_wrt_mask(
            masks, targets)
        with trace.tracing():
            traced_err, traced_grad = engine.error_and_gradient_wrt_mask(
                masks, targets)
        np.testing.assert_array_equal(plain_err, traced_err)
        np.testing.assert_array_equal(plain_grad, traced_grad)
