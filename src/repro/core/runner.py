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
:func:`record` of an execution — a :class:`Record`, a test id and one
interned :class:`Outcome` — and the store, the memo and the wire hold
that outcome; the runner returns the full :class:`RunResult` to its
direct callers (replay, precision trials).
"""

from __future__ import annotations

import marshal
import threading
import weakref
from collections import OrderedDict
from itertools import chain
from operator import attrgetter

from repro.core.fault import Fault
from repro.core.sensors import measure
from repro.errors import TargetError
from repro.injection.injector import FaultInjector, MemoizedInjector
from repro.injection.models.base import model_injector
from repro.injection.plan import InjectionPlan
from repro.quality.online import stack_digest
from repro.sim.process import RunResult, Verdicts, run_test
from repro.sim.testsuite import Target

__all__ = [
    "GoldenStore", "NO_PLAN", "OUTCOME_FIELDS", "Outcome", "Record",
    "ReportMemory", "TargetRunner", "compile_scenario", "golden_reach",
    "injection_identity", "intern_outcome", "outcome_of",
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


#: an :class:`Outcome`'s fields, in :func:`intern_outcome`'s order.
OUTCOME_FIELDS = (
    "coverage", "exit_code", "crash_kind", "crash_message", "crash_stack",
    "injection_stack", "injected", "steps", "failure_message",
    "measurements", "open_fds", "leaked_heap_bytes", "invariant_violations",
    "provenance", "stack_digest",
)

#: fingerprint -> the one live :class:`Outcome` of those fields, and
#: coverage set -> the one live equal set outcomes share.
_INTERNED: "weakref.WeakValueDictionary[object, object]" = (
    weakref.WeakValueDictionary())


class Outcome(Verdicts):
    """What one execution gave, without its test id: every field
    :func:`record` keeps, and its injection stack's
    :func:`~repro.quality.online.stack_digest` (None when nothing fired).

    Immutable and interned (:func:`intern_outcome`): equal fields are
    one object, so the history, the memo, the golden store and the
    wire's body table hold one outcome however often it recurs, and
    ``is`` compares two.  ``key`` is the intern key, type- and bit-exact
    (``1``/``1.0``/``True`` and ``0.0``/``-0.0`` never alias), or None
    for fields no key can stand for; such an outcome is never shared.
    """

    __slots__ = (*OUTCOME_FIELDS, "key", "__weakref__")

    def __new__(cls, *, coverage=frozenset(), exit_code=0, crash_kind=None,
                crash_message=None, crash_stack=None, injection_stack=None,
                injected=False, steps=0, failure_message=None,
                measurements=None, open_fds=0, leaked_heap_bytes=0,
                invariant_violations=(), provenance=(), stack_digest=None):
        return intern_outcome((
            coverage, exit_code, crash_kind, crash_message, crash_stack,
            injection_stack, injected, steps, failure_message,
            {} if measurements is None else measurements, open_fds,
            leaked_heap_bytes, invariant_violations, provenance,
            stack_digest,
        ))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"an Outcome is immutable (set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"an Outcome is immutable (delete {name!r})")

    def __reduce__(self):
        # Unpickled through the intern table of the receiving process.
        return intern_outcome, (_outcome_values(self),)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(OUTCOME_FIELDS, _outcome_values(self)))
        return f"Outcome({fields})"


_outcome_values = attrgetter(*OUTCOME_FIELDS)
_MEASUREMENTS = OUTCOME_FIELDS.index("measurements")
_OUTCOME_SLOTS = tuple(getattr(Outcome, name).__set__
                       for name in (*OUTCOME_FIELDS, "key"))


def intern_outcome(values: tuple) -> Outcome:
    """The one :class:`Outcome` of ``values`` (:data:`OUTCOME_FIELDS`
    order; ``coverage`` any iterable of block names).

    The key is the coverage set beside the ``marshal`` bytes of the
    rest, ``measurements`` in key order — nothing ever loads them:
    marshal writes exact builtin types and raw IEEE-754 bits and
    refuses anything else (a provenance log's records).  The table
    holds what is live elsewhere, nothing more.
    """
    fields = list(values)
    fields[0] = frozenset(fields[0])
    fields[_MEASUREMENTS] = dict(sorted(fields[_MEASUREMENTS].items()))
    try:
        rest = marshal.dumps(fields[1:], 2)
    except (TypeError, ValueError):
        key = None
    else:
        held = _INTERNED.get((fields[0], rest))
        if held is not None:
            return held
        fields[0] = _INTERNED.setdefault(fields[0], fields[0])
        key = fields[0], rest
    outcome = object.__new__(Outcome)
    for slot, value in zip(_OUTCOME_SLOTS, (*fields, key)):
        slot(outcome, value)
    return outcome if key is None else _INTERNED.setdefault(key, outcome)


def outcome_of(result: RunResult, measurements: dict[str, float]) -> Outcome:
    """The outcome of ``result`` with ``measurements``, its other fields
    as they are."""
    return intern_outcome((
        result.coverage, result.exit_code, result.crash_kind,
        result.crash_message, result.crash_stack, result.injection_stack,
        result.injected, result.steps, result.failure_message,
        measurements, result.open_fds, result.leaked_heap_bytes,
        result.invariant_violations, result.provenance,
        stack_digest(result.injection_stack),
    ))


#: the plan every record carries (its fault is beside it in the history).
NO_PLAN = InjectionPlan.none()


class Record(Verdicts):
    """The one result a history keeps of an execution: the pair
    ``(test_id, outcome)``, immutable.

    It reads every name a :class:`RunResult` has: the :class:`Outcome`'s
    fields (and ``stack_digest``) through it, and a record's blanks —
    ``plan`` (:data:`NO_PLAN`), ``test_name``, ``stdout``/``stderr``,
    ``call_counts``, ``trace`` and ``setup_steps`` — so an impact metric,
    a strategy or the canonical text takes either.  Two records are
    equal when their test ids are and their outcome is one object.
    """

    __slots__ = ("test_id", "outcome")

    plan = NO_PLAN
    test_name = ""
    stdout = stderr = trace = ()
    setup_steps = 0

    def __new__(cls, test_id: int, outcome: Outcome) -> "Record":
        self = object.__new__(cls)
        _SET_TEST_ID(self, test_id)
        _SET_OUTCOME(self, outcome)
        return self

    @property
    def call_counts(self) -> dict[str, int]:
        return {}

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"a Record is immutable (set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"a Record is immutable (delete {name!r})")

    def __eq__(self, other: object) -> bool:
        if type(other) is not Record:
            return NotImplemented
        return (self.test_id == other.test_id
                and self.outcome is other.outcome)

    def __reduce__(self):
        return Record, (self.test_id, self.outcome)

    def replace(self, **changes: object) -> "Record":
        """This record with ``changes``: its test id, outcome fields."""
        fields = dict(zip(OUTCOME_FIELDS, _outcome_values(self.outcome)))
        test_id = changes.pop("test_id", self.test_id)
        fields.update(changes)
        return Record(test_id, Outcome(**fields))

    def __repr__(self) -> str:
        return f"Record(test_id={self.test_id!r}, outcome={self.outcome!r})"


_SET_TEST_ID = Record.test_id.__set__
_SET_OUTCOME = Record.outcome.__set__
for _name in OUTCOME_FIELDS:
    setattr(Record, _name, property(attrgetter(f"outcome.{_name}")))
del _name


def record(result: RunResult) -> Record:
    """The one result a history records of an execution, on every path.

    ``result`` is a runner's full :class:`RunResult`, measured here by
    the default sensors (:func:`~repro.core.sensors.measure`); a node
    manager ships the record in its
    :class:`~repro.cluster.messages.TestReport`.  Everything an impact
    metric or a result-set analysis reads is kept in its
    :class:`Outcome`; ``plan``, ``test_name``, the output streams and
    call counts are blank.
    """
    return Record(result.test_id, outcome_of(result, measure(result)))


class GoldenStore:
    """Test id → that test's fault-free record and reach.

    What the exploration loop answers from: it harvests the outcome of
    the first result of a test that may stand golden (:func:`golden_reach`)
    and answers with its record — a record has no plan, so it is what
    any scenario that cannot fire records.  Bounded by suite size.
    """

    def __init__(self) -> None:
        self._goldens: dict[int, tuple[Record, dict]] = {}
        self.hits = 0

    def harvest(self, test: int, outcome: Outcome,
                call_counts: dict) -> None:
        """Keep ``outcome`` for ``test`` unless one is already held.

        ``call_counts`` is held as given, not copied: the memo entry of
        the same execution holds the same dict, and nothing mutates one.
        """
        if test not in self._goldens:
            self._goldens[test] = (Record(test, outcome), call_counts)

    def answer(self, test: int, plan) -> Record | None:
        """The golden record of ``test`` if no fault of hook-free
        ``plan`` can fire on it, else None.

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
    """Scenario → the outcome its execution gave: the loop's memo.

    The exploration loop asks it for a scenario the :class:`GoldenStore`
    cannot answer, executes only what neither can, and remembers what
    it executed.  Execution is deterministic, so a remembered outcome is
    the one executing again would give — for as long as the runner
    identity (``target/version/injector``) is the one it was remembered
    under.  Whoever shares a memo keeps that so: an engine holds one,
    the service one per identity.

    An entry, keyed by the scenario (a flat tuple of its subspace and
    attribute names and values: it holds no pair of its own), is the
    interned :class:`Outcome` of its :func:`record` and, only where it
    has one, the reach its execution measured (:func:`golden_reach`;
    None when it may not stand golden, or was not measured in this
    process).  Most MiniDB entries differ from another only in their
    test id, so they hold one outcome.  The reach is what lets a hit teach a golden store what
    the execution it stands for would have: an engine whose memo
    another one filled answers from its goldens what that one did.

    LRU-bounded at ``capacity`` entries.  Thread-safe: the service's
    job threads share one.
    """

    #: entries kept: a warm MiniDB engine's working set fits (120
    #: benchmark campaigns remember ~15 000 scenarios).
    capacity = 65_536

    def __init__(self) -> None:
        # (subspace, name, value, ...) -> outcome, or (outcome, reach).
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        # id(outcome) -> entries holding it: the distinct outcomes.
        self._bodies: dict[int, int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def answer(self, scenario: Fault) -> (
            tuple[Outcome, dict[str, int] | None] | None):
        """``scenario``'s remembered ``(outcome, reach)``, or None."""
        key = (scenario.subspace, *chain.from_iterable(scenario.attributes))
        with self._lock:
            held = self._entries.get(key)
            if held is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return held if type(held) is tuple else (held, None)

    def remember(self, scenario: Fault, outcome: Outcome,
                 reach: dict[str, int] | None = None) -> None:
        """Keep what ``scenario`` returned; ``reach`` only where this
        process executed it."""
        key = (scenario.subspace, *chain.from_iterable(scenario.attributes))
        with self._lock:
            bodies = self._bodies
            bodies[id(outcome)] = bodies.get(id(outcome), 0) + 1
            entries = self._entries
            replaced = entries.get(key)
            entries[key] = outcome if reach is None else (outcome, reach)
            if replaced is not None:
                self._release(replaced)
            if len(entries) > self.capacity:
                self._release(entries.popitem(last=False)[1])
                self.evictions += 1

    def _release(self, held: object) -> None:
        body = id(held[0] if type(held) is tuple else held)
        refs = self._bodies[body] - 1
        if refs:
            self._bodies[body] = refs
        else:
            del self._bodies[body]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        """Entries and the distinct outcomes they hold, and lifetime
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
