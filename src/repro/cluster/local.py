"""Execution fabrics: thread-pool and virtual-time clusters.

:class:`LocalCluster` runs a batch of requests across node managers with
a thread pool — one in-flight request per manager, round-robin
assignment, preserving the one-machine-one-manager model of §6.

:class:`VirtualCluster` executes the same work serially but accounts a
*virtual clock* per node: each test's measured (or modelled) cost is
added to the least-loaded node, exactly as an idle-node scheduler would
place it.  Because AFEX tests are independent ("embarrassing
parallelism", §6.1), the virtual makespan is a faithful model of real
cluster wall-clock — this substitutes for the paper's 1-14 node EC2
measurements (§7.7), which we cannot rent offline.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor

from repro.cluster.fault_tolerance import FabricHealth
from repro.cluster.manager import NodeManager
from repro.cluster.messages import TestReport, TestRequest
from repro.errors import ClusterError

__all__ = ["LocalCluster", "VirtualCluster"]


class LocalCluster:
    """Thread-pool fabric: real concurrent execution of a request batch.

    Fail-fast: a manager that raises mid-request surfaces the error to
    the caller.  Retry, deadlines, and worker replacement belong to
    :class:`~repro.cluster.fault_tolerance.FaultTolerantFabric`, which
    the engine always wraps this fabric in; :attr:`health` keeps the
    dispatch/request/completed accounting that wrapper reads.
    """

    def __init__(self, managers: list[NodeManager]) -> None:
        if not managers:
            raise ClusterError("a cluster needs at least one node manager")
        names = [m.name for m in managers]
        if len(set(names)) != len(names):
            raise ClusterError(f"duplicate manager names: {names}")
        self.managers = list(managers)
        self.health = FabricHealth()

    def __len__(self) -> int:
        return len(self.managers)

    def run_batch(self, requests: list[TestRequest]) -> list[TestReport]:
        """Execute a batch, one thread per manager, round-robin placement.

        Reports come back in request order regardless of completion
        order, so the explorer's bookkeeping stays deterministic.
        """
        if not requests:
            return []
        self.health.dispatches += 1
        self.health.requests += len(requests)
        assignments: list[list[TestRequest]] = [[] for _ in self.managers]
        for i, request in enumerate(requests):
            assignments[i % len(self.managers)].append(request)

        reports: dict[int, TestReport] = {}
        with ThreadPoolExecutor(max_workers=len(self.managers)) as pool:
            futures = [
                pool.submit(self._run_on, index, batch)
                for index, batch in enumerate(assignments)
                if batch
            ]
            for future in futures:
                for report in future.result():
                    reports[report.request_id] = report
        self.health.completed += len(reports)
        return [reports[r.request_id] for r in requests]

    def _run_on(self, index: int, batch: list[TestRequest]) -> list[TestReport]:
        manager = self.managers[index]
        return [manager.execute(request) for request in batch]


class VirtualCluster:
    """Virtual-time fabric: deterministic model of an N-node cluster.

    Tests run serially in this process; their measured costs are
    assigned to the least-loaded virtual node.  :attr:`makespan` is the
    modelled wall-clock of the whole exploration, and
    :meth:`speedup_over_serial` is what the §7.7 scalability bench
    reports.
    """

    def __init__(self, managers: list[NodeManager]) -> None:
        if not managers:
            raise ClusterError("a cluster needs at least one node manager")
        self.managers = list(managers)
        #: virtual busy-time per node, seconds.
        self.node_clocks = [0.0] * len(managers)
        self.total_cost = 0.0
        # Least-loaded placement as a heap of (clock, node) instead of an
        # O(n) min() scan per request: ties break on the lower node index
        # in both, so placement — and therefore makespan/speedup — is
        # unchanged, but a 10k-test run on a wide cluster no longer pays
        # O(tests * nodes) in the scheduler.
        self._idle_heap = [(0.0, node) for node in range(len(managers))]

    def __len__(self) -> int:
        return len(self.managers)

    def run_batch(self, requests: list[TestRequest]) -> list[TestReport]:
        reports = []
        for request in requests:
            clock, node = heapq.heappop(self._idle_heap)
            report = self.managers[node].execute(request)
            clock += report.cost
            self.node_clocks[node] = clock
            self.total_cost += report.cost
            heapq.heappush(self._idle_heap, (clock, node))
            reports.append(report)
        return reports

    @property
    def makespan(self) -> float:
        """Modelled wall-clock: the busiest node's virtual clock."""
        return max(self.node_clocks)

    def speedup_over_serial(self) -> float:
        """How much faster than one node this cluster would have been."""
        if self.makespan == 0.0:
            return 1.0
        return self.total_cost / self.makespan
