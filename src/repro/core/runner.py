"""Binding fault-space points to concrete test executions.

A :class:`TargetRunner` is the glue the node manager uses: it takes a
fault (named attribute vector), extracts the *workload* attribute
(``test``, selecting a test from the target's default suite), hands the
remaining attributes to the injector plugin, and executes the test under
the resulting plan.

:func:`compile_scenario` is deliberately the only place that knows the
``test`` attribute is special — the explorer and the strategies treat
every axis uniformly, exactly as AFEX treats its fault space as an
opaque hyperspace.

It is also the only place that consults the
:class:`~repro.core.cache.ResultCache`: every execution in the simulated
world is a pure function of ``(target, fault, trial, step budget)``, so
memoizing here makes duplicate executions free for every caller above —
sessions, cluster managers, campaigns, precision re-trials, and replay.

A runner executes every scenario it is handed.  Deciding what not to
run is the exploration loop's (:class:`~repro.core.session.ExplorationLoop`):
the paper draws its fault spaces from a fault-free profile (§7: ltrace
call counts per test), which the loop keeps in a :class:`GoldenStore`
and answers from every scenario that cannot fire — the sim is
deterministic and a run is the fault-free ("golden") run up to its
first firing, so this is an identity, not a heuristic.  Above a cluster
fabric the engine also keeps a :class:`ReportMemory` of what its fleet
sent back, so the explorer never ships a scenario the fleet has
already run either.  Every path records the same :func:`record` of an
execution; the runner returns the full :class:`RunResult` to its
direct callers (replay, precision trials, the :class:`ResultCache`).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.cache import DEFAULT_CAPACITY, ResultCache
from repro.core.fault import Fault
from repro.errors import TargetError
from repro.injection.injector import FaultInjector, MemoizedInjector
from repro.injection.models.base import model_injector
from repro.injection.plan import InjectionPlan
from repro.sim.libc import DEFAULT_STEP_BUDGET, ProvenanceRecord
from repro.sim.process import RunResult, run_test
from repro.sim.testsuite import Target

__all__ = [
    "GoldenStore", "ReportMemory", "TargetRunner", "compile_scenario",
    "golden_reach", "injection_identity", "record",
]


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


def compile_scenario(
    injector: FaultInjector, attributes: dict
) -> tuple[int, object]:
    """``(test id, plan)`` of a fault's attribute dict (consumed)."""
    raw_test = attributes.pop("test", None)
    if raw_test is None:
        raise TargetError(
            f"fault {attributes} has no 'test' attribute; "
            "cannot select a workload test"
        )
    return int(raw_test), injector.plan_for(attributes)  # type: ignore[arg-type]


def golden_reach(result: RunResult) -> dict[str, int] | None:
    """``result``'s ``call_counts`` if it may stand as its test's
    fault-free run, else None.

    Hooks count writes and sends a golden run does not record, and
    set-up calls count in ``call_counts`` though no fault can fire on
    them (such totals overstate reach).
    """
    if (result.injected or result.setup_steps or result.provenance
            or getattr(result.plan, "hooks", ())):
        return None
    return result.call_counts


class GoldenStore:
    """Test id → that test's fault-free record and reach.

    What the exploration loop answers from: it harvests the record of
    the first result of a test that may stand golden (:func:`golden_reach`)
    with its stack digest, and answers with it — a record has no plan, so
    it is what any scenario that cannot fire records.  Bounded by suite
    size; equal ``coverage`` sets are shared between goldens (1 147
    MiniDB goldens hold 16 distinct sets).
    """

    def __init__(self) -> None:
        self._goldens: dict[int, tuple[tuple[RunResult, str | None], dict]] = {}
        self._coverages: dict[frozenset[str], frozenset[str]] = {}
        self.hits = 0

    def harvest(self, test: int, result: RunResult, digest: str | None,
                call_counts: dict) -> None:
        """Keep record ``result`` for ``test`` unless one is already held."""
        if test not in self._goldens:
            result.coverage = self._coverages.setdefault(
                result.coverage, result.coverage)
            self._goldens[test] = ((result, digest), dict(call_counts))

    def answer(self, test: int, plan) -> tuple[RunResult, str | None] | None:
        """``(golden record, stack digest)`` of ``test`` if no fault of
        hook-free ``plan`` can fire on it, else None.

        Every trigger shape (one-shot, ``persistent``, ``until``) first
        fires at exactly ``call_number``, so a plan fires iff the golden
        run makes some fault's ``call_number``-th call.
        """
        held = self._goldens.get(test)
        if held is None:
            return None
        counts = held[1]
        for fault in plan.faults:
            if counts.get(fault.function, 0) >= fault.call_number:
                return None
        self.hits += 1
        return held[0]

    def stats(self) -> dict[str, int]:
        """Fault-free runs held, and scenarios answered from them."""
        return {"goldens": len(self._goldens), "hits": self.hits}


class ReportMemory:
    """Scenario → the record of the report its execution returned.

    What an engine remembers of its fleet, above the cluster fabric: the
    explorer asks it for a scenario the :class:`GoldenStore` cannot
    answer and ships only what neither can.  Execution is deterministic
    and every node's identity is the engine's, so a remembered record is
    the one executing again would give.

    An entry is the :func:`record` the explorer built of a report, with
    the report's ``stack_digest``.  LRU-bounded at the cache's default
    capacity.  Entries share one object per equal coverage set, stack,
    stack digest, measurement dict and key attribute, through
    tables bounded by the same capacity: a full table starts afresh, and
    only sharing is lost — entries keep the objects they hold.  Not
    thread-safe: one explorer asks at a time.
    """

    #: entries kept, and the bound of each sharing table.
    capacity = DEFAULT_CAPACITY

    def __init__(self) -> None:
        # (subspace, attributes) -> (record, stack digest): a plain
        # tuple hashes and compares in C, a ``Fault`` in Python.
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        # value -> the one equal object entries share; equal immutable
        # values are interchangeable, whatever field they are.
        self._shared: dict[object, object] = {}
        # a measurement dict's repr -> the one dict entries share:
        # 0.0 == -0.0 and 1 == 1.0, but they encode differently.
        self._measurements: dict[str, dict[str, float]] = {}
        self.hits = 0

    def answer(self, scenario: Fault) -> tuple[RunResult, str | None] | None:
        """``scenario``'s remembered ``(record, stack digest)``, or None."""
        key = (scenario.subspace, scenario.attributes)
        held = self._entries.get(key)
        if held is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return held

    def remember(self, scenario: Fault, result: RunResult,
                 stack_digest: str | None) -> None:
        """Keep what ``scenario`` returned, swapping record ``result``'s
        values for shared equal ones."""
        share = self._share
        text = repr(result.measurements)
        shared = self._measurements.get(text)
        if shared is None:
            if len(self._measurements) >= self.capacity:
                self._measurements.clear()
            shared = self._measurements[text] = result.measurements
        result.measurements = shared
        result.coverage = share(result.coverage)
        result.injection_stack = share(result.injection_stack)
        result.crash_stack = share(result.crash_stack)
        key = (scenario.subspace, tuple(map(share, scenario.attributes)))
        self._entries[key] = (result, share(stack_digest))
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def _share(self, value):
        if len(self._shared) >= self.capacity:
            self._shared.clear()
        return self._shared.setdefault(value, value)

    def __len__(self) -> int:
        return len(self._entries)


#: the plan every record carries (its fault is beside it in the history).
_NO_PLAN = InjectionPlan.none()


def record(test_id: int, outcome, measurements: dict[str, float]) -> RunResult:
    """The one result a history records of an execution, on every path.

    ``outcome`` is a runner's full :class:`RunResult` or a node's
    :class:`~repro.cluster.messages.TestReport` of one, ``measurements``
    its default sensors' (:func:`~repro.core.sensors.measure`, which a
    node runs before it ships).  Everything an impact metric or a
    result-set analysis reads is kept; ``plan``, ``test_name``, the
    output streams and call counts stay blank.
    """
    provenance = outcome.provenance
    return RunResult(
        test_id=test_id,
        test_name="",
        plan=_NO_PLAN,
        exit_code=outcome.exit_code,
        crash_kind=outcome.crash_kind,
        crash_message=outcome.crash_message,
        crash_stack=outcome.crash_stack,
        injection_stack=outcome.injection_stack,
        injected=outcome.injected,
        coverage=outcome.coverage,
        steps=outcome.steps,
        failure_message=outcome.failure_message,
        measurements=measurements,
        open_fds=outcome.open_fds,
        leaked_heap_bytes=outcome.leaked_heap_bytes,
        invariant_violations=outcome.invariant_violations,
        provenance=tuple(map(ProvenanceRecord.from_raw, provenance))
        if provenance else (),
    )


class TargetRunner:
    """Executes fault-space points against a target's test suite."""

    def __init__(
        self,
        target: Target,
        injector: FaultInjector | None = None,
        cache: ResultCache | None = None,
        metrics: "object | None" = None,
        tracer: "object | None" = None,
        provenance: bool = False,
    ) -> None:
        self.target = target
        injector = injector or model_injector("errno")
        #: a plan memo: the loop's compile of a scenario is its only one.
        self.injector = (injector if isinstance(injector, MemoizedInjector)
                         else MemoizedInjector(injector))
        self.cache = cache
        #: when True, every execution records the call-level provenance
        #: log (the replay/explain path; off on the exploration path).
        self.provenance = provenance
        #: optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        #: set, every execution reports ``runner.execute_seconds`` and
        #: ``sim.injected_calls`` by function/errno, every scenario
        #: ``runner.tests``.
        self.metrics = metrics
        #: optional :class:`~repro.obs.trace.Tracer`; when set, every
        #: scenario opens ``cache_lookup`` and ``execute`` spans (with
        #: an ``inject`` child when a fault fires) under the caller's
        #: current span.
        self.tracer = tracer
        #: this runner's own cache traffic (the cache's counters are
        #: everyone's who shares it).
        self._cache_hits = self._cache_misses = 0
        if metrics is not None:
            # Resolve the per-execution series once: series lookup is a
            # string format plus dict probe, too costly to repeat on a
            # path the <5 % overhead budget covers.
            self._tests_counter = metrics.counter("runner.tests")
            self._execute_hist = metrics.histogram("runner.execute_seconds")
            self._injected_counters: dict[tuple[str, str], object] = {}
            if cache is not None:
                cache.bind_metrics(metrics)

    @property
    def identity(self) -> str:
        """What this runner's answers are answers *of* (cache keys, a
        fleet's hello).  The injector participates: two may compile the
        same attribute dict into different plans."""
        return f"{self.target.name}/{self.target.version}/{self.injector.name}"

    def _cache_key(self, fault: Fault, trial: int) -> str:
        return ResultCache.key_for(
            self.identity, fault.subspace, fault.attributes, trial,
            DEFAULT_STEP_BUDGET,
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
        test_id, plan = compile_scenario(self.injector, fault.as_dict())
        result = self._execute(self.target.suite[test_id], plan, trial)
        if key is not None:
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
                trial=trial, provenance=self.provenance,
            )
            if clock is not None:
                self._execute_hist.observe(clock() - started)
            self._observe(result)
        finally:
            if span is not None:
                span.__exit__(None, None, None)
        return result

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
