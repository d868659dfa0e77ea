"""Unified metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per scope (each :class:`LithoEngine`
carries its own as ``engine.metrics``; engine-less components use the
process-wide :func:`default_registry`).  The registry is the single
backing store for run statistics — ``EngineStats`` is a facade over
it — so snapshots, telemetry, and the ``repro profile`` report all
read the same numbers.

* :class:`Counter` — monotonically increasing float/int total;
* :class:`Gauge` — last-set value;
* :class:`Histogram` — count/sum/min/max and optionally the raw value
  sequence (``keep_values=True``) for error curves.

All mutation is lock-protected; ``snapshot()`` returns plain nested
dicts safe to hand to telemetry or JSON.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional


class Counter:
    # ``value`` is a plain slot, like the Histogram fields: the worker
    # pool reads engine counters twice per task.
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0.0


class Gauge:
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Streaming count/sum/min/max; optionally retains raw values."""

    __slots__ = ("name", "count", "sum", "min", "max", "_values", "_lock")

    def __init__(self, name: str, keep_values: bool = False):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._values: Optional[List[float]] = [] if keep_values else None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if self._values is not None:
                self._values.append(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def values(self) -> List[float]:
        """Raw observed sequence (only when ``keep_values=True``)."""
        with self._lock:
            return list(self._values or [])

    def summary(self) -> Dict[str, float]:
        with self._lock:
            if not self.count:
                return {"count": 0, "sum": 0.0, "mean": 0.0,
                        "min": 0.0, "max": 0.0}
            return {"count": self.count, "sum": self.sum,
                    "mean": self.sum / self.count,
                    "min": self.min, "max": self.max}

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.sum = 0.0
            self.min = float("inf")
            self.max = float("-inf")
            if self._values is not None:
                self._values.clear()


class MetricsRegistry:
    """Namespace of named counters/gauges/histograms.

    Accessors create-on-first-use so instrumentation points never need
    registration boilerplate; repeated lookups return the same object.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str, keep_values: bool = False) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(
                    name, keep_values=keep_values)
            return metric

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict snapshot of every metric in the registry."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in counters.items()},
            "gauges": {name: g.value for name, g in gauges.items()},
            "histograms": {name: h.summary()
                           for name, h in histograms.items()},
        }

    def reset(self) -> None:
        with self._lock:
            metrics = (list(self._counters.values())
                       + list(self._gauges.values())
                       + list(self._histograms.values()))
        for metric in metrics:
            metric.reset()


_default: Optional[MetricsRegistry] = None
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """Process-wide registry for components without their own scope."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = MetricsRegistry()
    return _default
