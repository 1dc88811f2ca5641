"""The elastic fleet's two helpers.

:func:`readdressed` re-issues a report as the answer to another request
for the same scenario — the explorer's answer seam
(:meth:`~repro.cluster.explorer_node.ClusterExplorer._execute`) uses it
for what the golden store answers above the fabric.
:class:`NodeLatencyTracker` is the per-node latency estimate the socket
fabric's work stealing ranks victims by.
"""

from __future__ import annotations

import dataclasses

from repro.cluster.messages import TestReport
from repro.errors import ClusterError

__all__ = ["NodeLatencyTracker", "readdressed"]


def readdressed(report: TestReport, request_id: int) -> TestReport:
    """``report`` as the answer to another request for its scenario.

    Nothing ran, so nothing was traced and the answer is free: no spans,
    no cost, and a ``measurements`` dict of its own.  Every other field
    is exactly what a deterministic re-execution would have produced,
    which is why such an answer cannot move a history digest.
    """
    return dataclasses.replace(
        report, request_id=request_id, cost=0.0, spans=(),
        measurements=dict(report.measurements),
    )


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
