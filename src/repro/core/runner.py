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

A runner executes every scenario it is handed.  Deciding what not to
run is the exploration loop's (:class:`~repro.core.session.ExplorationLoop`),
and it decides twice.  The paper draws its fault spaces from a
fault-free profile (§7: ltrace call counts per test), which the loop
keeps in a :class:`GoldenStore` and answers from every scenario that
cannot fire — the sim is deterministic and a run is the fault-free
("golden") run up to its first firing, so this is an identity, not a
heuristic.  What the store cannot answer the loop asks its
:class:`ReportMemory` of every scenario it has already run, so a
campaign never re-executes a test (paper §3, Algorithm 1), nor does a
later one on the same engine.  Every path records the same
:func:`record` of an execution; the runner returns the full
:class:`RunResult` to its direct callers (replay, precision trials).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.cache import DEFAULT_CAPACITY
from repro.core.fault import Fault
from repro.errors import TargetError
from repro.injection.injector import FaultInjector, MemoizedInjector
from repro.injection.models.base import model_injector
from repro.injection.plan import InjectionPlan
from repro.sim.libc import ProvenanceRecord
from repro.sim.process import RunResult, run_test
from repro.sim.testsuite import Target

__all__ = [
    "GoldenStore", "ReportMemory", "TargetRunner", "compile_scenario",
    "golden_reach", "injection_identity", "publish_memo_stats", "record",
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
        """Keep record ``result`` for ``test`` unless one is already held.

        ``call_counts`` is held as given, not copied: the memo entry of
        the same execution holds the same dict, and nothing mutates one.
        """
        if test not in self._goldens:
            result.coverage = self._coverages.setdefault(
                result.coverage, result.coverage)
            self._goldens[test] = ((result, digest), call_counts)

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
    """Scenario → the record its execution gave: the loop's memo.

    The exploration loop asks it for a scenario the :class:`GoldenStore`
    cannot answer, executes only what neither can, and remembers what
    it executed.  Execution is deterministic, so a remembered record is
    the one executing again would give — for as long as the runner
    identity (``target/version/injector``) is the one it was remembered
    under.  Whoever shares a memo keeps that so: an engine holds one,
    the service one per identity.

    An entry is a :func:`record` with its ``stack_digest`` (None where
    nothing computed one) and the reach its execution measured
    (:func:`golden_reach`; None when it may not stand golden, or was
    not measured in this process), keyed by ``(subspace, attributes)``.
    The reach is what lets a hit teach a golden store what the
    execution it stands for would have: an engine whose memo another
    one filled answers from its goldens what that one did.
    LRU-bounded at ``capacity``.  Entries share one object per equal
    coverage set, stack, stack digest, measurement dict and key
    attribute, through tables bounded by the same capacity: a full
    table starts afresh, and only sharing is lost — entries keep the
    objects they hold.  Thread-safe: the service's job threads share
    one.
    """

    #: entries kept, and the bound of each sharing table.
    capacity = DEFAULT_CAPACITY

    def __init__(self) -> None:
        # (subspace, attributes) -> (record, stack digest, reach): a
        # plain tuple hashes and compares in C, a ``Fault`` in Python.
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        # value -> the one equal object entries share; equal immutable
        # values are interchangeable, whatever field they are.
        self._shared: dict[object, object] = {}
        # a measurement dict's repr -> the one dict entries share:
        # 0.0 == -0.0 and 1 == 1.0, but they encode differently.
        self._measurements: dict[str, dict[str, float]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def answer(self, scenario: Fault) -> (
            tuple[RunResult, str | None, dict[str, int] | None] | None):
        """``scenario``'s remembered ``(record, stack digest, reach)``,
        or None."""
        key = (scenario.subspace, scenario.attributes)
        with self._lock:
            held = self._entries.get(key)
            if held is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        return held

    def remember(self, scenario: Fault, result: RunResult,
                 stack_digest: str | None,
                 reach: dict[str, int] | None = None) -> None:
        """Keep what ``scenario`` returned, swapping record ``result``'s
        values for shared equal ones; ``reach`` only where this process
        executed it."""
        with self._lock:
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
            entries = self._entries
            entries[key] = (result, share(stack_digest), reach)
            if len(entries) > self.capacity:
                entries.popitem(last=False)
                self.evictions += 1

    def _share(self, value):
        if len(self._shared) >= self.capacity:
            self._shared.clear()
        return self._shared.setdefault(value, value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Entries, and lifetime hit/miss/eviction counts, of one instant."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def bind_metrics(self, registry: "object") -> None:
        """Publish :meth:`stats` as the ``cache.*`` gauges (and
        ``cache.hit_ratio``) of every snapshot of ``registry`` — a
        snapshot-time collector, no per-answer cost."""
        registry.register_collector(  # type: ignore[attr-defined]
            lambda reg: publish_memo_stats(reg, self.stats()))


def publish_memo_stats(registry: "object", stats: dict[str, int]) -> None:
    """Set the ``cache.*`` gauges from a :meth:`ReportMemory.stats` dict."""
    for name, value in stats.items():
        registry.gauge(f"cache.{name}").set(value)  # type: ignore[attr-defined]
    asked = stats["hits"] + stats["misses"]
    registry.gauge("cache.hit_ratio").set(  # type: ignore[attr-defined]
        stats["hits"] / asked if asked else 0.0)


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
        metrics: "object | None" = None,
        tracer: "object | None" = None,
        provenance: bool = False,
    ) -> None:
        self.target = target
        injector = injector or model_injector("errno")
        #: a plan memo: the loop's compile of a scenario is its only one.
        self.injector = (injector if isinstance(injector, MemoizedInjector)
                         else MemoizedInjector(injector))
        #: when True, every execution records the call-level provenance
        #: log (the replay/explain path; off on the exploration path).
        self.provenance = provenance
        #: optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        #: set, every execution reports ``runner.execute_seconds`` and
        #: ``sim.injected_calls`` by function/errno, every scenario
        #: ``runner.tests``.
        self.metrics = metrics
        #: optional :class:`~repro.obs.trace.Tracer`; when set, every
        #: scenario opens an ``execute`` span (with an ``inject`` child
        #: when a fault fires) under the caller's current span.
        self.tracer = tracer
        if metrics is not None:
            # Resolve the per-execution series once: series lookup is a
            # string format plus dict probe, too costly to repeat on a
            # path the <5 % overhead budget covers.
            self._tests_counter = metrics.counter("runner.tests")
            self._execute_hist = metrics.histogram("runner.execute_seconds")
            self._injected_counters: dict[tuple[str, str], object] = {}

    @property
    def identity(self) -> str:
        """What this runner's answers are answers *of* (a memo, a
        fleet's hello).  The injector participates: two may compile the
        same attribute dict into different plans."""
        return f"{self.target.name}/{self.target.version}/{self.injector.name}"

    def __call__(self, fault: Fault, trial: int = 0) -> RunResult:
        if self.metrics is not None:
            self._tests_counter.inc()
        test_id, plan = compile_scenario(self.injector, fault.as_dict())
        return self._execute(self.target.suite[test_id], plan, trial)

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
