"""Adaptive batch sizing: amortize dispatch overhead, bound staleness.

Every fabric pays a fixed per-round cost — future scheduling and IPC on
the process pool, frame round-trips on the socket fabric — that is
independent of how many tests the round carries.  Profiling the
process-pool fabric put that cost near 10 ms per round against ~0.3 ms
per simulated test: at the explorer's default batch width the fixed
cost dwarfs the useful work, which is exactly why the pool once
measured 0.26x of serial.  Growing the batch amortizes the
overhead away — but an unboundedly large batch starves the search of
feedback (fitness-guided proposal quality degrades when thousands of
candidates are proposed off one stale fitness snapshot) and unbalances
the work queue.

:class:`AdaptiveBatchController` walks that trade-off online instead of
asking the operator to guess.  It observes each round's wall-clock via
the same measurement the ``fabric.dispatch_seconds`` histogram sees,
maintains an EWMA of per-test latency, and sizes the next round to hit
a target round duration — long enough that the fixed cost is noise,
short enough that feedback stays fresh.  Moves are bounded to one
``growth`` factor per round (no oscillation on a noisy measurement) and
snapped to a multiple of the fabric width (no worker sits idle waiting
for a ragged tail chunk).

Exposed to operators as ``--batch-size auto``.  Adaptive sizing changes
the *trajectory* of the search (different batch boundaries → different
proposal order), so it is opt-in and refuses to combine with
checkpointing, whose replay contract requires a fixed batch size.
"""

from __future__ import annotations

from repro.errors import ClusterError

__all__ = ["AdaptiveBatchController", "NodeLatencyTracker"]


class AdaptiveBatchController:
    """Sizes each dispatch round from observed per-test latency.

    ``width`` is the fabric's parallel width (``len(cluster)``): batch
    sizes are multiples of it so chunked round-robin dispatch keeps
    every worker equally loaded.  ``target_round_seconds`` is the round
    duration to steer toward; the default 0.25 s makes a ~10 ms fixed
    dispatch cost a <5 % tax while still giving the strategy feedback
    several times a second on simulated targets.
    """

    def __init__(
        self,
        width: int,
        *,
        target_round_seconds: float = 0.25,
        min_batch: int | None = None,
        max_batch: int | None = None,
        growth: float = 2.0,
        smoothing: float = 0.5,
    ) -> None:
        if width < 1:
            raise ClusterError(f"fabric width must be >= 1, got {width}")
        if target_round_seconds <= 0:
            raise ClusterError(
                f"target round seconds must be positive, "
                f"got {target_round_seconds}"
            )
        if growth <= 1.0:
            raise ClusterError(f"growth factor must exceed 1, got {growth}")
        if not 0.0 < smoothing <= 1.0:
            raise ClusterError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        self.width = int(width)
        self.target_round_seconds = float(target_round_seconds)
        self.min_batch = self.width if min_batch is None else int(min_batch)
        if self.min_batch < 1:
            raise ClusterError(
                f"min batch must be >= 1, got {self.min_batch}"
            )
        default_max = max(self.min_batch, 64 * self.width)
        self.max_batch = default_max if max_batch is None else int(max_batch)
        if self.max_batch < self.min_batch:
            raise ClusterError(
                f"max batch {self.max_batch} below min batch {self.min_batch}"
            )
        self.growth = float(growth)
        self.smoothing = float(smoothing)
        #: EWMA of seconds per test, None until the first observation.
        self.per_test_seconds: float | None = None
        #: rounds observed (not counting empty/zero-duration ones).
        self.rounds = 0
        # Start near the bottom: the first round doubles as the latency
        # probe, so it should be cheap even on a slow target.
        self._current = min(
            self.max_batch, max(self.min_batch, 2 * self.width)
        )

    def batch_size(self) -> int:
        """The size the next round should dispatch."""
        return self._current

    def observe(self, tests: int, elapsed_seconds: float) -> int:
        """Account one completed round; returns the next batch size.

        ``tests`` is how many requests the round dispatched and
        ``elapsed_seconds`` its dispatch wall-clock.  Degenerate
        observations (empty round, non-positive clock) leave the
        controller unchanged — a paused fabric must not distort the
        latency estimate.
        """
        if tests <= 0 or elapsed_seconds <= 0:
            return self._current
        self.rounds += 1
        sample = elapsed_seconds / tests
        if self.per_test_seconds is None:
            self.per_test_seconds = sample
        else:
            self.per_test_seconds = (
                self.smoothing * sample
                + (1.0 - self.smoothing) * self.per_test_seconds
            )
        ideal = self.target_round_seconds / self.per_test_seconds
        # Bounded move: at most one growth factor up or down per round.
        bounded = min(
            max(ideal, self._current / self.growth),
            self._current * self.growth,
        )
        # Snap down to a multiple of the fabric width so round-robin
        # chunks stay level, then clamp into the configured range.
        snapped = int(bounded // self.width) * self.width
        self._current = max(self.min_batch, min(self.max_batch, snapped))
        return self._current

    def bind_metrics(self, registry: "object") -> None:
        """Publish the controller's state as snapshot-time gauges."""
        bound = getattr(self, "_bound_registries", None)
        if bound is None:
            bound = self._bound_registries = set()
        if id(registry) in bound:
            return
        bound.add(id(registry))

        def _collect(reg) -> None:
            reg.gauge("fabric.batch.size").set(self._current)
            reg.gauge("fabric.batch.per_test_seconds").set(
                self.per_test_seconds or 0.0
            )

        registry.register_collector(_collect)  # type: ignore[attr-defined]

    def stats(self) -> dict[str, object]:
        """Controller state for benchmark payloads and debugging."""
        return {
            "batch_size": self._current,
            "min_batch": self.min_batch,
            "max_batch": self.max_batch,
            "width": self.width,
            "rounds": self.rounds,
            "per_test_seconds": self.per_test_seconds,
            "target_round_seconds": self.target_round_seconds,
        }

    def describe(self) -> str:
        latency = (
            "unmeasured" if self.per_test_seconds is None
            else f"{self.per_test_seconds * 1e3:.2f} ms/test"
        )
        return (
            f"autobatch: {self._current} "
            f"[{self.min_batch}..{self.max_batch}] x{self.width}, "
            f"{latency}, target {self.target_round_seconds:.2f}s/round"
        )


class NodeLatencyTracker:
    """Per-node EWMA of seconds-per-test, for steal-victim selection.

    The fabric-wide :class:`AdaptiveBatchController` EWMA answers "how
    big should the next round be"; an *elastic* fleet also needs to know
    which node is the slowest **right now** — the work-stealing
    scheduler reassigns backlog from the node whose estimated remaining
    time is longest, which on a heterogeneous fleet (the paper's EC2
    mix) is a per-node question.  Observations are turnarounds on the
    *manager's* clock — hand-off (or the node's previous report) to the
    arrival of a report frame, over the tests it carries — so they
    count everything a test costs the round, not the runner's share
    alone.  A node that has reported nothing yet has no estimate and
    ``estimate`` falls back to the fleet-wide mean of the known nodes.
    """

    def __init__(self, smoothing: float = 0.3) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ClusterError(
                f"smoothing must be in (0, 1], got {smoothing}"
            )
        self.smoothing = float(smoothing)
        self._per_test: dict[str, float] = {}

    def observe(self, node: str, tests: int, seconds: float) -> None:
        """Account ``tests`` completed by ``node`` in ``seconds``."""
        if tests <= 0 or seconds < 0:
            return
        sample = seconds / tests
        previous = self._per_test.get(node)
        self._per_test[node] = (
            sample if previous is None
            else self.smoothing * sample + (1.0 - self.smoothing) * previous
        )

    def per_test_seconds(self, node: str) -> float | None:
        """The node's EWMA seconds-per-test, None before any report."""
        return self._per_test.get(node)

    def estimate(self, node: str, backlog: int) -> float:
        """Estimated seconds for ``node`` to clear ``backlog`` tests.

        Unknown nodes borrow the fleet mean so a fresh joiner is
        neither an irresistible steal victim nor permanently immune;
        with no data at all every estimate is the bare backlog count,
        which still ranks victims by queue depth.
        """
        rate = self._per_test.get(node)
        if rate is None:
            rate = (
                sum(self._per_test.values()) / len(self._per_test)
                if self._per_test else 1.0
            )
        return backlog * rate

    def forget(self, node: str) -> None:
        """Drop a retired node's estimate (a rejoin re-measures)."""
        self._per_test.pop(node, None)

    def stats(self) -> dict[str, float]:
        """Per-node EWMA snapshot for benchmark payloads and gauges."""
        return dict(self._per_test)
