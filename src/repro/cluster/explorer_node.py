"""The cluster explorer: batch-parallel exploration (§6.1).

Runs the one exploration loop
(:class:`~repro.core.session.ExplorationLoop`) with each generation
shipped to a cluster fabric as a *batch* of requests.  Batched
proposal is sound for every bundled strategy: Algorithm 1 is "parallel
hill-climbing with a common pool of candidate states" (stochastic beam
search, §3), so generating several offspring before observing their
fitness is exactly the parallelism the paper's prototype exploits on
EC2.

Impact scoring stays explorer-side (unlike the prototype, whose managers
aggregate a local impact value) because the standard metric's
newly-covered-block component needs the *global* set of blocks seen —
a deliberate, documented deviation that only moves where a sum is
computed, not what is measured.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import Protocol

from repro.cluster.fault_tolerance import FabricHealth
from repro.cluster.messages import TestReport, TestRequest
from repro.core.fault import Fault
from repro.core.faultspace import FaultSpace
from repro.core.impact import ImpactMetric
from repro.core.results import ExecutedTest
from repro.core.runner import GoldenStore
from repro.core.search.base import SearchStrategy
from repro.core.session import ExplorationLoop, Ran
from repro.core.targets import SearchTarget
from repro.errors import ClusterError
from repro.quality.relevance import EnvironmentModel

__all__ = ["ClusterExplorer", "ExecutionFabric"]


class ExecutionFabric(Protocol):
    """What the explorer needs from a fabric: width and batch execution.

    Satisfied by :class:`~repro.cluster.local.LocalCluster` (threads),
    :class:`~repro.cluster.local.VirtualCluster` (virtual time),
    :class:`~repro.cluster.process_pool.ProcessPoolCluster` (real
    cores) and :class:`~repro.cluster.socket_fabric.SocketFabric`
    (networked nodes).
    """

    def __len__(self) -> int: ...

    def run_batch(self, requests: list[TestRequest]) -> list[TestReport]: ...


class ClusterExplorer(ExplorationLoop):
    """Explores a fault space by dispatching batches to node managers.

    ``batch_size`` defaults to the fabric's width.

    ``goldens`` (with the fleet's own ``injector``) is the loop's golden
    store, fed here from the ``call_counts`` of the fleet's fault-free
    reports.  Neither has a default — an explorer guessing ``errno`` over
    ``errno+disk`` nodes would answer scenarios whose disk hook fires —
    so only the owner of both ends, the engine, gives them; without them
    every scenario ships.  The other keyword-only options (``memory``
    among them) are :class:`~repro.core.session.ExplorationLoop`'s.
    """

    def __init__(
        self,
        cluster: ExecutionFabric,
        space: FaultSpace,
        metric: ImpactMetric,
        strategy: SearchStrategy,
        target: SearchTarget,
        rng: random.Random | int | None = None,
        batch_size: int | None = None,
        environment: EnvironmentModel | None = None,
        on_test: Callable[[ExecutedTest], None] | None = None,
        *,
        goldens: GoldenStore | None = None,
        injector: "object | None" = None,
        **options: object,
    ) -> None:
        if goldens is not None and injector is None:
            raise ClusterError("a golden store needs the fleet's injector")
        self.cluster = cluster
        if batch_size is None:
            batch_size = len(cluster)
        if not isinstance(batch_size, int) or batch_size < 1:
            raise ClusterError(
                f"batch size must be a positive int, got {batch_size!r}"
            )
        super().__init__(
            space, metric, strategy, target, rng, batch_size,
            environment, on_test, goldens=goldens, injector=injector,
            **options,  # type: ignore[arg-type]
        )
        if self.metrics is not None:
            # Beyond the loop's own series the explorer reports dispatch
            # latency and queue depth, and (via collectors) fabric
            # health and worker utilization.
            self.metrics.register_collector(self._collect_fabric)
            # Fabrics with their own export surface (the socket fabric's
            # wire/fleet gauges) hook into the same registry; the bind is
            # idempotent fabric-side.
            bind = self._fabric_attr("bind_metrics")
            if bind is not None:
                bind(self.metrics)

    def _fabric_attr(self, name: str) -> object | None:
        """An optional fabric attribute, looked up through a
        fault-tolerance wrapper (``inner``) when the wrapper itself
        does not answer."""
        found = getattr(self.cluster, name, None)
        if found is None:
            found = getattr(getattr(self.cluster, "inner", None), name, None)
        return found

    @property
    def health(self) -> FabricHealth | None:
        """The fabric's fault-tolerance record, when it keeps one.

        A :class:`~repro.cluster.fault_tolerance.FaultTolerantFabric`
        answers with its *combined* record — its own counters folded
        with the wrapped fabric's internal ones (e.g. a process pool's
        chunk retries) — so no retry disappears between the layers.
        """
        combined = getattr(self.cluster, "combined_health", None)
        if combined is not None:
            return combined()
        return getattr(self.cluster, "health", None)

    def fleet_stats(self) -> dict[str, object] | None:
        """Elastic-fleet accounting (stealing, membership) when
        the fabric keeps it — the socket fabric does; in-process
        fabrics answer None."""
        stats = self._fabric_attr("fleet_stats")
        return stats() if callable(stats) else None

    def _checkpoint_meta(self) -> dict[str, object]:
        health = self.health
        meta: dict[str, object] = (
            {"fabric_health": health.as_dict()} if health else {}
        )
        fleet = self.fleet_stats()
        if fleet is not None:
            meta["fleet"] = fleet
        meta.update(super()._checkpoint_meta())
        return meta

    def _collect_fabric(self, registry) -> None:
        """Snapshot-time gauges: fabric health and worker utilization."""
        health = self.health
        if health is not None:
            for name, value in health.as_dict().items():
                registry.gauge(f"fabric.health.{name}").set(value)
        for manager in self._fabric_attr("managers") or []:
            registry.gauge(
                "fabric.worker_busy_seconds", worker=manager.name
            ).set(manager.busy_seconds)
            registry.gauge(
                "fabric.worker_executed", worker=manager.name
            ).set(manager.executed)

    def _run(
        self, pending: list[tuple[int, Fault]], dispatch: "object | None"
    ) -> list[Ran]:
        """Ship ``pending`` as one batch; a request's id is its fault's
        history index.

        With a tracer attached, the dispatch span's id rides inside
        every request so worker-side ``execute``/``inject`` spans —
        possibly produced in another process — nest under it; the spans
        they ship back in reports are absorbed into the tracer's sinks.
        """
        trace_id = parent = None
        if dispatch is not None:
            trace_id, parent = dispatch.trace_id, dispatch.span_id
        requests = [
            TestRequest(
                request_id=request_id,
                subspace=fault.subspace,
                scenario=fault.as_dict(),
                trace_id=trace_id,
                parent_span=parent,
            )
            for request_id, fault in pending
        ]
        return [
            (report.result, report.stack_digest, report.call_counts)
            for _, report in zip(pending, self._dispatch(requests),
                                 strict=True)
        ]

    def _dispatch(self, requests: list[TestRequest]) -> list[TestReport]:
        """One ``run_batch``, measured; worker spans absorbed."""
        if self.metrics is not None:
            self.metrics.gauge("fabric.queue_depth").set(len(requests))
            self.metrics.gauge("fabric.batch.size").set(len(requests))
            with self.metrics.timer("fabric.dispatch_seconds"):
                reports = self.cluster.run_batch(requests)
        else:
            reports = self.cluster.run_batch(requests)
        if self.tracer is not None:
            for report in reports:
                for span_event in report.spans:
                    self.tracer.emit(span_event)
        return reports

