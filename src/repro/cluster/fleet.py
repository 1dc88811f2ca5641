"""The per-node latency estimate the socket fabric's work stealing
ranks victims by (:class:`NodeLatencyTracker`)."""

from __future__ import annotations

from repro.errors import ClusterError

__all__ = ["NodeLatencyTracker"]


class NodeLatencyTracker:
    """Per-node EWMA of seconds-per-test, for steal-victim selection.

    An *elastic* fleet needs to know which node is the slowest **right
    now** — the work-stealing scheduler reassigns backlog from the node
    whose estimated remaining time is longest, which on a heterogeneous
    fleet (the paper's EC2 mix) is a per-node question.  Observations
    are turnarounds on the *manager's* clock — hand-off (or the node's
    previous report) to the arrival of a report frame, over the tests
    it carries — so they count everything a test costs the round, not
    the runner's share alone.  A node that has reported nothing yet has
    no estimate and ``estimate`` falls back to the fleet-wide mean of
    the known nodes.
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
