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

import marshal
import threading
from collections import OrderedDict

from repro.core.fault import Fault
from repro.core.sensors import measure
from repro.errors import TargetError
from repro.injection.injector import FaultInjector, MemoizedInjector
from repro.injection.models.base import model_injector
from repro.injection.plan import InjectionPlan
from repro.sim.process import RunResult, run_test
from repro.sim.testsuite import Target

__all__ = [
    "GoldenStore", "ReportMemory", "TargetRunner", "body_fingerprint",
    "compile_scenario", "golden_reach", "injection_identity",
    "publish_memo_stats", "record",
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


class _Body:
    """A record's outcome without its test id, and its stack digest: the
    one object a :class:`ReportMemory` holds for equal records.

    ``key`` is its :func:`body_fingerprint` (its ``id`` where it has
    none), ``refs`` the entries holding it.
    """

    __slots__ = (
        "exit_code", "crash_kind", "crash_message", "crash_stack",
        "injection_stack", "injected", "coverage", "steps",
        "failure_message", "measurements", "open_fds", "leaked_heap_bytes",
        "invariant_violations", "provenance", "digest", "key", "refs",
    )

    def record(self, test_id: int) -> RunResult:
        """The record of test ``test_id`` with this outcome."""
        return RunResult(
            test_id=test_id,
            test_name="",
            plan=NO_PLAN,
            exit_code=self.exit_code,
            crash_kind=self.crash_kind,
            crash_message=self.crash_message,
            crash_stack=self.crash_stack,
            injection_stack=self.injection_stack,
            injected=self.injected,
            coverage=self.coverage,
            steps=self.steps,
            failure_message=self.failure_message,
            measurements=self.measurements,
            open_fds=self.open_fds,
            leaked_heap_bytes=self.leaked_heap_bytes,
            invariant_violations=self.invariant_violations,
            provenance=self.provenance,
        )


class ReportMemory:
    """Scenario → the outcome its execution gave: the loop's memo.

    The exploration loop asks it for a scenario the :class:`GoldenStore`
    cannot answer, executes only what neither can, and remembers what
    it executed.  Execution is deterministic, so a remembered outcome is
    the one executing again would give — for as long as the runner
    identity (``target/version/injector``) is the one it was remembered
    under.  Whoever shares a memo keeps that so: an engine holds one,
    the service one per identity.

    An entry, keyed by ``(subspace, *attributes)``, is the outcome
    *body* of a :func:`record` — every field but the test id, with the
    ``stack_digest`` (None where nothing computed one) — and, only where
    it has one, the reach its execution measured (:func:`golden_reach`;
    None when it may not stand golden, or was not measured in this
    process).  Equal bodies are one object, interned by
    :func:`body_fingerprint` (the wire's rule, so ``1``/``1.0``/``True``
    and ``0.0``/``-0.0`` never alias); an answer is a fresh record of
    the body with the test id its scenario names.  Most MiniDB entries
    differ from another only in their test id.  The reach is what lets
    a hit teach a golden store what the execution it stands for would
    have: an engine whose memo another one filled answers from its
    goldens what that one did.

    LRU-bounded at ``capacity`` entries; a body lives while an entry
    holds it.  Bodies share one object per equal coverage set, stack,
    stack digest and key attribute, through a table bounded by the same
    capacity: a full table starts afresh, and only sharing is lost.
    Thread-safe: the service's job threads share one.
    """

    #: entries kept, and the bound of the sharing table: a warm MiniDB
    #: engine's working set fits (120 benchmark campaigns remember
    #: ~15 000 scenarios).
    capacity = 65_536

    def __init__(self) -> None:
        # (subspace, *attributes) -> body, or (body, reach): a flat
        # tuple holds the shared attribute pairs in one object where a
        # ``Fault`` would hold two.
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        # fingerprint -> the one body entries share.
        self._bodies: dict[object, _Body] = {}
        # value -> the one equal object bodies and keys share; equal
        # immutable values are interchangeable, whatever field they are.
        self._shared: dict[object, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def answer(self, scenario: Fault) -> (
            tuple[RunResult, str | None, dict[str, int] | None] | None):
        """``scenario``'s remembered ``(record, stack digest, reach)``,
        or None."""
        key = (scenario.subspace, *scenario.attributes)
        with self._lock:
            held = self._entries.get(key)
            if held is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        body, reach = held if type(held) is tuple else (held, None)
        return body.record(int(scenario.value("test"))), body.digest, reach

    def remember(self, scenario: Fault, result: RunResult,
                 stack_digest: str | None,
                 reach: dict[str, int] | None = None) -> None:
        """Keep the body of what ``scenario`` returned, record ``result``
        with ``stack_digest``; ``reach`` only where this process
        executed it."""
        fingerprint = body_fingerprint(result, stack_digest)
        with self._lock:
            body = self._bodies.get(fingerprint)
            if body is None:
                body = self._intern(result, stack_digest, fingerprint)
            body.refs += 1
            key = (scenario.subspace, *map(self._share, scenario.attributes))
            entries = self._entries
            replaced = entries.get(key)
            entries[key] = body if reach is None else (body, reach)
            if replaced is not None:
                self._release(replaced)
            if len(entries) > self.capacity:
                self._release(entries.popitem(last=False)[1])
                self.evictions += 1

    def _intern(self, result: RunResult, stack_digest: str | None,
                fingerprint: object) -> _Body:
        share = self._share
        body = _Body()
        body.exit_code = result.exit_code
        body.crash_kind = result.crash_kind
        body.crash_message = result.crash_message
        body.crash_stack = share(result.crash_stack)
        body.injection_stack = share(result.injection_stack)
        body.injected = result.injected
        # A run's block names are its own str objects: equal sets share
        # one frozenset, and distinct sets their names.
        body.coverage = self._shared.get(result.coverage) or share(
            frozenset(map(share, result.coverage)))
        body.steps = result.steps
        body.failure_message = result.failure_message
        body.measurements = result.measurements
        body.open_fds = result.open_fds
        body.leaked_heap_bytes = result.leaked_heap_bytes
        body.invariant_violations = result.invariant_violations
        body.provenance = result.provenance
        body.digest = share(stack_digest)
        body.key = (id(body) if fingerprint is None
                    else (body.coverage, fingerprint[1]))
        body.refs = 0
        self._bodies[body.key] = body
        return body

    def _release(self, held: object) -> None:
        body = held[0] if type(held) is tuple else held
        body.refs -= 1
        if not body.refs:
            del self._bodies[body.key]

    def _share(self, value):
        if len(self._shared) >= self.capacity:
            self._shared.clear()
        return self._shared.setdefault(value, value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Entries and the distinct bodies they hold, and lifetime
        hit/miss/eviction counts, of one instant."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bodies": len(self._bodies),
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
NO_PLAN = InjectionPlan.none()


def record(result: RunResult) -> RunResult:
    """The one result a history records of an execution, on every path.

    ``result`` is a runner's full :class:`RunResult`, measured here by
    the default sensors (:func:`~repro.core.sensors.measure`); a node
    manager ships the record in its
    :class:`~repro.cluster.messages.TestReport`.  Everything an impact
    metric or a result-set analysis reads is kept; ``plan``,
    ``test_name``, the output streams and call counts stay blank.
    """
    return RunResult(
        test_id=result.test_id,
        test_name="",
        plan=NO_PLAN,
        exit_code=result.exit_code,
        crash_kind=result.crash_kind,
        crash_message=result.crash_message,
        crash_stack=result.crash_stack,
        injection_stack=result.injection_stack,
        injected=result.injected,
        coverage=result.coverage,
        steps=result.steps,
        failure_message=result.failure_message,
        measurements=measure(result),
        open_fds=result.open_fds,
        leaked_heap_bytes=result.leaked_heap_bytes,
        invariant_violations=result.invariant_violations,
        provenance=result.provenance,
    )


def body_fingerprint(result: RunResult,
                     stack_digest: str | None) -> tuple | None:
    """A type- and bit-exact key of record ``result``'s outcome body —
    every field :func:`record` keeps but the test id — with its
    ``stack_digest``, or None for a field no key can stand for.

    Equal keys mean equal fields of equal types: the wire's body table
    and the :class:`ReportMemory` both intern by it.  ``marshal`` is a
    fingerprint here — nothing ever loads it: it writes exact builtin
    types and raw IEEE-754 bits (``1``/``1.0``/``True`` and
    ``0.0``/``-0.0`` differ) and refuses anything else.  ``coverage``
    stays a frozenset (cached hash; marshal would write it in iteration
    order).
    """
    try:
        return frozenset(result.coverage), marshal.dumps((
            result.crash_kind, result.exit_code, result.injection_stack,
            result.injected, result.steps, result.measurements,
            result.invariant_violations, stack_digest,
            result.crash_message, result.crash_stack,
            result.failure_message, result.open_fds,
            result.leaked_heap_bytes, result.provenance,
        ), 2)
    except (TypeError, ValueError):
        return None


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
