"""Node manager: runs scenarios on one (simulated) machine (§6.1).

"The node manager coordinates all tasks on a physical machine.  It
contains a set of plugins that convert fault descriptions from the
AFEX-internal representation to concrete configuration files and
parameters for the injectors and sensors."

Here, the manager owns a target and an injector plugin (the errno fault
model unless told otherwise).  Given a
:class:`~repro.cluster.messages.TestRequest` it rebuilds the injection
plan through the plugin, executes the test hermetically, and returns a
:class:`~repro.cluster.messages.TestReport` carrying the run's record
(:func:`~repro.core.runner.record`, measured by the default sensors),
as the in-process loop records it.  It executes whatever it
is sent: the explorer decides what not to run, and a fault-free run's
``call_counts`` ride back in its report so the explorer's golden store
learns the test's reach.
"""

from __future__ import annotations

import time

from repro.cluster.messages import TestReport, TestRequest
from repro.core.fault import Fault
from repro.core.runner import (
    TargetRunner, golden_reach, injection_identity, record,
)
from repro.errors import ClusterError
from repro.injection.injector import FaultInjector
from repro.obs.trace import worker_spans
from repro.quality.online import stack_digest
from repro.sim.testsuite import Target

__all__ = ["NodeManager"]


class NodeManager:
    """Executes test requests against a target and measures each run."""

    def __init__(
        self,
        name: str,
        target: Target,
        injector: FaultInjector | None = None,
        metrics: "object | None" = None,
    ) -> None:
        if not name:
            raise ClusterError("node manager needs a non-empty name")
        self.name = name
        self.target = target
        # The metrics registry (a
        # :class:`~repro.obs.metrics.MetricsRegistry`, shared by every
        # manager of an in-process fabric) receives the simulator-layer
        # series: injected calls by function/errno, tests by manager.
        self.metrics = metrics
        if metrics is not None:
            self._tests_counter = metrics.counter(
                "manager.tests", manager=name
            )
        self._runner = TargetRunner(target, injector, metrics=metrics)
        #: total tests executed by this manager (load accounting).
        self.executed = 0
        #: cumulative execution cost in seconds.
        self.busy_seconds = 0.0

    def execute(self, request: TestRequest) -> TestReport:
        """Run one scenario and report the outcome."""
        fault = Fault(request.subspace, tuple(request.scenario.items()))
        started = time.perf_counter()
        result = self._runner(fault)
        cost = time.perf_counter() - started
        self.executed += 1
        self.busy_seconds += cost
        if self.metrics is not None:
            self._tests_counter.inc()
        spans: tuple = ()
        if request.trace_id is not None:
            function, errno = injection_identity(result)
            spans = worker_spans(
                request.trace_id, request.parent_span, request.request_id,
                self.name, started, started + cost,
                injected_function=function, injected_errno=errno,
            )
        return TestReport(
            request_id=request.request_id,
            result=record(result),
            cost=cost,
            spans=spans,
            stack_digest=stack_digest(result.injection_stack),
            call_counts=golden_reach(result),
        )

    @property
    def identity(self) -> str:
        """``target/version/injector`` — see :attr:`TargetRunner.identity`."""
        return self._runner.identity

    def describe(self) -> str:
        return (
            f"manager {self.name!r}: {self.target.describe()}, "
            f"{self.executed} tests run"
        )
