"""Zero-dependency metrics primitives: counters, gauges, histograms.

AFEX's evaluation is all quantified search quality — per-round fitness,
machine utilization, cache effectiveness (§5, §7.7) — yet everything the
reproduction measured between "dispatch" and "final scorecard" used to
be thrown away.  A :class:`MetricsRegistry` is the single place every
layer reports into: the exploration session (fitness, proposals/s), the
execution fabrics (dispatch latency, queue depth, retries by cause),
the result cache (hits/misses/evictions), and the simulated libc
(injected calls by function and errno).

Design constraints, in order:

* **zero dependencies** — plain dicts and lists, no prometheus_client;
* **cheap on the hot path** — a counter increment is one dict lookup
  and one add; a histogram observation is a linear bucket scan over a
  dozen boundaries.  The ≤5 % instrumentation-overhead budget, read
  as ``obs.instrumented_ratio`` in ``bench/run.py --traced``, is the
  contract;
* **exact under test** — the clock is injectable, so timer-based
  histograms observe precisely the values a test dictates and the
  percentile math (documented on :meth:`Histogram.percentile`) is
  checkable to the decimal.

Series are identified by a dotted name plus optional labels
(``registry.counter("sim.injected_calls", function="malloc",
errno="ENOMEM")``); the formatted identity is
``name{k="v",...}`` with labels sorted, so snapshots are stable.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections.abc import Callable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "series_id",
]

#: default histogram boundaries for latencies in seconds: 100 µs .. 30 s,
#: roughly geometric — wide enough for a whole dispatch round, fine
#: enough to separate a warm cache hit from a simulator execution.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def series_id(name: str, labels: dict[str, object] | None = None) -> str:
    """The canonical identity of one series: ``name{k="v",...}``.

    Labels are sorted by key so the same (name, labels) pair always
    formats identically — snapshot keys, Prometheus lines, and test
    expectations all agree.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, utilization)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """A fixed-bucket histogram with exact, documented percentile math.

    ``boundaries`` are the inclusive upper bounds of the first
    ``len(boundaries)`` buckets; one implicit overflow bucket catches
    everything above the last boundary.  Observations update a count, a
    sum, a min/max, and the matching bucket counter — O(log n) in the
    boundary count via bisection.

    :meth:`percentile` uses the standard exposition-format estimate:
    find the first bucket whose cumulative count reaches
    ``ceil(p/100 * count)`` and interpolate linearly inside it between
    its lower and upper bound by rank.  With an injected clock the
    observations are exact, so the estimate is a pure deterministic
    function tests can compute independently.
    """

    __slots__ = ("name", "boundaries", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(
        self,
        name: str,
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket boundary")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket boundaries must strictly increase: {bounds}")
        self.name = name
        self.boundaries = bounds
        #: per-bucket observation counts; index len(boundaries) = overflow.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate the p-th percentile (p in [0, 100]) from the buckets.

        The rank is ``ceil(p/100 * count)`` (1-based, clamped to at
        least 1); the answer lies in the first bucket whose cumulative
        count reaches that rank, linearly interpolated between the
        bucket's lower and upper bound by the rank's position among the
        bucket's own observations.  The overflow bucket reports the
        observed maximum (there is no upper bound to interpolate
        toward); an empty histogram reports 0.0.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        rank = max(1, -(-int(p * self.count) // 100))  # ceil(p/100 * count)
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                if index == len(self.boundaries):
                    return self.max
                lower = self.boundaries[index - 1] if index else 0.0
                upper = self.boundaries[index]
                within = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * within
            cumulative += bucket_count
        return self.max  # pragma: no cover - unreachable when count > 0

    def summary(self) -> dict[str, float | int]:
        """The machine-readable digest ``--profile`` publishes."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class _Timer:
    """Context manager observing elapsed clock time into a histogram."""

    __slots__ = ("_histogram", "_clock", "_started")

    def __init__(self, histogram: Histogram, clock: Callable[[], float]) -> None:
        self._histogram = histogram
        self._clock = clock
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(self._clock() - self._started)


class MetricsRegistry:
    """Every layer's shared sink for counters, gauges, and histograms.

    Series are created on first use and live for the registry's
    lifetime.  ``clock`` feeds :meth:`timer` and is injectable so tests
    observe exact durations.  **Collectors** are callables invoked just
    before every :meth:`snapshot` — components whose state already
    lives elsewhere (a :class:`~repro.core.cache.ResultCache`'s hit
    counters, a fabric's :class:`~repro.cluster.fault_tolerance.
    FabricHealth`) register one and publish gauges lazily instead of
    paying per-operation increments.

    Thread-safe for series *creation*; increments on a live series are
    plain int/float ops (atomic enough under the GIL for counters whose
    consumers tolerate off-by-an-increment reads mid-run — snapshots
    are taken between rounds).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.Lock()

    # -- series access ---------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = series_id(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(key, Counter(key))
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = series_id(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(key, Gauge(key))
        return gauge

    def histogram(
        self,
        name: str,
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = series_id(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(
                    key, Histogram(key, boundaries)
                )
        return histogram

    def timer(self, name: str, **labels: object) -> _Timer:
        """``with registry.timer("fabric.dispatch_seconds"): ...``"""
        return _Timer(self.histogram(name, **labels), self.clock)

    # -- collectors ------------------------------------------------------------

    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Run ``collector(self)`` before every snapshot/export."""
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector(self)

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """A JSON-able view of every series, with stable key order.

        Counter values and histogram bucket counts are deterministic
        for a deterministic workload; histogram sums of *timed*
        observations are wall-clock and therefore not.  Checkpoint
        metadata embeds this whole structure at round boundaries.
        """
        self.collect()
        return {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {
                k: self._gauges[k].value for k in sorted(self._gauges)
            },
            "histograms": {
                k: {
                    "boundaries": list(h.boundaries),
                    "bucket_counts": list(h.bucket_counts),
                    **h.summary(),
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    def counters(self) -> dict[str, int]:
        """Counter values only — the fully deterministic slice."""
        return {k: self._counters[k].value for k in sorted(self._counters)}
