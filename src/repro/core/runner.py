"""Binding fault-space points to concrete test executions.

A :class:`TargetRunner` is the glue the node manager uses: it takes a
fault (named attribute vector), extracts the *workload* attribute
(``test``, selecting a test from the target's default suite), hands the
remaining attributes to the injector plugin, and executes the test under
the resulting plan.

The runner is deliberately the only place that knows the ``test``
attribute is special — the explorer and the strategies treat every axis
uniformly, exactly as AFEX treats its fault space as an opaque
hyperspace.

It is also the only place that consults the
:class:`~repro.core.cache.ResultCache`: every execution in the simulated
world is a pure function of ``(target, fault, trial, step budget)``, so
memoizing here makes duplicate executions free for every caller above —
sessions, cluster managers, campaigns, precision re-trials, and replay.
"""

from __future__ import annotations

from repro.core.cache import ResultCache
from repro.core.fault import Fault
from repro.errors import TargetError
from repro.injection.injector import FaultInjector
from repro.injection.models.base import model_injector
from repro.sim.libc import DEFAULT_STEP_BUDGET
from repro.sim.process import RunResult, run_test
from repro.sim.testsuite import Target

__all__ = ["TargetRunner", "injection_identity"]


def injection_identity(result: RunResult) -> tuple[str | None, str | None]:
    """``(function, errno name)`` of the fault that fired, if any.

    The simulator records the interposed function as the innermost
    frame of the injection stack; the errno comes from the plan's
    matching atomic fault.  This is the identity the ``sim.*`` metric
    series are labelled with.

    When the fired function has no matching atomic fault — a hooks-only
    or composed fault model, where the injection came from a world hook
    rather than an errno plan — the identity falls back to the hook's
    label (``disk:torn``, ``net:partition``...) instead of mislabelling
    the series with ``none``.
    """
    if not result.injected or not result.injection_stack:
        return None, None
    function = result.injection_stack[-1]
    for fault in result.plan.faults:
        if fault.function == function:
            return function, fault.errno.name
    for hook in getattr(result.plan, "hooks", ()):
        return function, hook.label()
    return function, None


class TargetRunner:
    """Executes fault-space points against a target's test suite."""

    def __init__(
        self,
        target: Target,
        injector: FaultInjector | None = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
        test_attribute: str = "test",
        cache: ResultCache | None = None,
        metrics: "object | None" = None,
        tracer: "object | None" = None,
        provenance: bool = False,
    ) -> None:
        self.target = target
        self.injector = injector or model_injector("errno")
        self.step_budget = step_budget
        self.test_attribute = test_attribute
        self.cache = cache
        #: when True, every execution records the call-level provenance
        #: log (the replay/explain path; off on the exploration path).
        self.provenance = provenance
        #: optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        #: set, every execution reports ``runner.execute_seconds`` and
        #: the ``sim.injected_calls`` series by function/errno.
        self.metrics = metrics
        #: optional :class:`~repro.obs.trace.Tracer`; when set, every
        #: execution opens ``cache_lookup`` and ``execute`` spans (with
        #: an ``inject`` child when a fault fires) under the caller's
        #: current span.
        self.tracer = tracer
        if metrics is not None:
            # Resolve the per-execution series once: series lookup is a
            # string format plus dict probe, too costly to repeat on a
            # path the <5 % overhead budget covers.
            self._tests_counter = metrics.counter("runner.tests")
            self._execute_hist = metrics.histogram("runner.execute_seconds")
            self._injected_counters: dict[tuple[str, str], object] = {}
            if cache is not None:
                cache.bind_metrics(metrics)

    def _cache_key(self, fault: Fault, trial: int) -> str:
        # The injector participates in the identity: two injectors may
        # compile the same attribute dict into different plans.
        target_id = (
            f"{self.target.name}/{self.target.version}/{self.injector.name}"
        )
        return ResultCache.key_for(
            target_id, fault.subspace, fault.attributes, trial, self.step_budget
        )

    def __call__(self, fault: Fault, trial: int = 0) -> RunResult:
        key = None
        if self.cache is not None:
            if self.tracer is not None:
                with self.tracer.span("cache_lookup") as span:
                    key = self._cache_key(fault, trial)
                    cached = self.cache.get(key)
                    span.set(hit=cached is not None)
            else:
                key = self._cache_key(fault, trial)
                cached = self.cache.get(key)
            if cached is not None:
                return cached
        attributes = fault.as_dict()
        raw_test = attributes.pop(self.test_attribute, None)
        if raw_test is None:
            raise TargetError(
                f"fault {fault} has no {self.test_attribute!r} attribute; "
                "cannot select a workload test"
            )
        test_id = int(raw_test)  # type: ignore[arg-type]
        test = self.target.suite[test_id]
        plan = self.injector.plan_for(attributes)
        span = None
        if self.tracer is not None:
            span = self.tracer.span("execute", test=test_id)
            span.__enter__()
        try:
            clock = self.metrics.clock if self.metrics is not None else None
            started = clock() if clock is not None else 0.0
            result = run_test(
                self.target, test, plan,
                trial=trial, step_budget=self.step_budget,
                provenance=self.provenance,
            )
            if clock is not None:
                self._execute_hist.observe(clock() - started)
            self._observe(result)
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        if self.cache is not None and key is not None:
            self.cache.put(key, result)
        return result

    def _observe(self, result: RunResult) -> None:
        """Report the simulator-layer outcome of one fresh execution.

        Runs inside the ``execute`` span (when tracing), so the
        ``inject`` point event nests under it naturally.
        """
        if self.metrics is None and self.tracer is None:
            return
        function, errno = injection_identity(result)
        if self.metrics is not None:
            self._tests_counter.inc()
            if function is not None:
                key = (function, errno or "none")
                counter = self._injected_counters.get(key)
                if counter is None:
                    counter = self._injected_counters[key] = (
                        self.metrics.counter(
                            "sim.injected_calls", function=key[0],
                            errno=key[1],
                        )
                    )
                counter.inc()  # type: ignore[attr-defined]
        if self.tracer is not None and function is not None:
            # A point event: the simulator does not timestamp the
            # interception itself.
            with self.tracer.span(
                "inject", function=function, errno=errno or "none"
            ):
                pass

    def describe(self) -> str:
        return f"{self.target.describe()} via {self.injector.describe()}"
