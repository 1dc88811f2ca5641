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

And it never runs a test that cannot differ from the fault-free run.
The paper draws its fault spaces from a fault-free profile (§7: ltrace
call counts per test); the runner keeps that profile per ``(test,
trial)`` — the first hook-free result that comes back ``injected=False``
*is* the fault-free ("golden") run, harvested for free — and answers
any later scenario whose faults all name a call the golden run never
makes with the golden result under the scenario's own plan.  The sim is
deterministic and a run is the golden run up to its first firing, so
this is an identity, not a heuristic.  The store dies with the runner:
never persisted, so a changed target cannot be served stale.
"""

from __future__ import annotations

from dataclasses import replace

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


def _unreachable(plan, golden: RunResult) -> bool:
    """Can no fault of ``plan`` fire on the test ``golden`` ran?

    Every trigger shape (one-shot, ``persistent``, ``until``) first
    fires at exactly ``call_number``, so a plan fires iff the golden run
    makes some fault's ``call_number``-th call.
    """
    counts = golden.call_counts
    return all(
        counts.get(fault.function, 0) < fault.call_number
        for fault in plan.faults
    )


def _own_copy(result: RunResult, **changes: object) -> RunResult:
    """``result`` with ``changes``, sharing none of its mutable dicts."""
    return replace(
        result, measurements=dict(result.measurements),
        call_counts=dict(result.call_counts), **changes,
    )


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
        #: ``sim.injected_calls`` by function/errno, every golden-run
        #: answer ``sim.golden_hits``, every scenario ``runner.tests``.
        self.metrics = metrics
        #: optional :class:`~repro.obs.trace.Tracer`; when set, every
        #: scenario opens ``cache_lookup`` and ``execute`` spans (with
        #: an ``inject`` child when a fault fires; ``golden_hit`` when
        #: answered from a golden run) under the caller's current span.
        self.tracer = tracer
        #: ``(test id, trial)`` → the fault-free result of that test;
        #: bounded by suite size × trials.
        self._goldens: dict[tuple[int, int], RunResult] = {}
        #: equal coverage sets are shared between goldens (1 147 MiniDB
        #: goldens hold 16 distinct sets).
        self._coverages: dict[frozenset[str], frozenset[str]] = {}
        self._golden_hits = 0
        #: this runner's own cache traffic (the cache's counters are
        #: everyone's who shares it).
        self._cache_hits = self._cache_misses = 0
        if metrics is not None:
            # Resolve the per-execution series once: series lookup is a
            # string format plus dict probe, too costly to repeat on a
            # path the <5 % overhead budget covers.
            self._tests_counter = metrics.counter("runner.tests")
            self._golden_counter = metrics.counter("sim.golden_hits")
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
        if self.metrics is not None:
            self._tests_counter.inc()
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
                self._cache_hits += 1
                return cached
            self._cache_misses += 1
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
        # Hooks count writes and sends the golden run does not record,
        # and a provenance runner re-executes on purpose: both execute.
        plain = not self.provenance and not getattr(plan, "hooks", ())
        golden = self._goldens.get((test_id, trial)) if plain else None
        if golden is not None and _unreachable(plan, golden):
            result = self._from_golden(golden, plan)
        else:
            result = self._execute(test, plan, trial)
            # Set-up calls count in ``call_counts`` though no fault can
            # fire on them; such totals overstate reach, so no golden.
            if (plain and golden is None and not result.injected
                    and not result.setup_steps):
                self._goldens[test_id, trial] = _own_copy(
                    result, coverage=self._coverages.setdefault(
                        result.coverage, result.coverage),
                )
        if self.cache is not None and key is not None:
            self.cache.put(key, result)
        return result

    def _execute(self, test, plan, trial: int) -> RunResult:
        span = None
        if self.tracer is not None:
            span = self.tracer.span("execute", test=test.id)
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
        return result

    def _from_golden(self, golden: RunResult, plan) -> RunResult:
        """The golden result under ``plan`` — what executing would return."""
        self._golden_hits += 1
        if self.metrics is not None:
            self._golden_counter.inc()
        if self.tracer is not None:
            with self.tracer.span("golden_hit", test=golden.test_id):
                pass
        return _own_copy(golden, plan=plan)

    def golden_stats(self) -> dict[str, int]:
        """Fault-free runs held, and scenarios answered from them."""
        return {"goldens": len(self._goldens), "hits": self._golden_hits}

    def cache_stats(self) -> dict[str, int]:
        """Scenarios this runner found in, and missed in, its cache."""
        return {"hits": self._cache_hits, "misses": self._cache_misses}

    def _observe(self, result: RunResult) -> None:
        """Report the simulator-layer outcome of one fresh execution.

        Runs inside the ``execute`` span (when tracing), so the
        ``inject`` point event nests under it naturally.
        """
        if self.metrics is None and self.tracer is None:
            return
        function, errno = injection_identity(result)
        if self.metrics is not None and function is not None:
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
