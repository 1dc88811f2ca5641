"""Explorer ↔ node-manager protocol messages.

Messages are plain frozen dataclasses whose payloads are all built-in
types, so they could be serialized onto a real wire unchanged.  The
scenario inside a :class:`TestRequest` is the AFEX-internal fault
representation (named attribute dict); the manager's plugins translate
it for the concrete injectors (§6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TestRequest", "TestReport"]


@dataclass(frozen=True)
class TestRequest:
    """Explorer → manager: please run this fault-injection scenario."""

    __test__ = False  # a message, not a pytest class, despite the name

    request_id: int
    #: subspace label of the fault (round-trips back into a Fault).
    subspace: str
    #: named fault attributes, e.g. {"test": 7, "function": "read", "call": 3}.
    scenario: dict[str, object]
    #: observability context (None when tracing is off): the explorer's
    #: trace id and the dispatch span the worker's spans should nest
    #: under.  Plain strings so the wire format stays picklable.
    trace_id: str | None = None
    parent_span: str | None = None

    def describe(self) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in self.scenario.items())
        return f"request #{self.request_id}: {attrs}"


@dataclass(frozen=True)
class TestReport:
    """Manager → explorer: what happened when the scenario ran."""

    __test__ = False

    request_id: int
    manager: str
    #: did the target's test fail (crash, hang, or bad exit)?
    failed: bool
    crash_kind: str | None
    exit_code: int
    #: basic blocks covered during the run.
    coverage: frozenset[str]
    #: simulated stack at the injection point (None if nothing fired).
    injection_stack: tuple[str, ...] | None
    #: did a *libc* fault of the plan fire?  False when only a world
    #: hook did (see :attr:`repro.sim.process.RunResult.injected`).
    injected: bool
    steps: int
    #: aggregated sensor measurements.
    measurements: dict[str, float] = field(default_factory=dict)
    #: manager-side wall-clock (or virtual) execution cost in seconds.
    cost: float = 0.0
    #: violated always-true properties, if the target defines invariants.
    invariant_violations: tuple[str, ...] = ()
    #: worker-side span events (see :func:`repro.obs.trace.worker_spans`),
    #: shipped back across the process boundary for the explorer's
    #: tracer to absorb; empty when the request carried no trace id.
    spans: tuple = ()
    #: content digest of ``injection_stack`` (see
    #: :func:`repro.quality.online.stack_digest`), computed worker-side
    #: so the explorer's online clustering resolves exact repeats with
    #: one dict probe instead of re-hashing the whole stack on its hot
    #: path.  None when nothing fired.
    stack_digest: str | None = None
    #: call-level provenance log as plain row tuples (see
    #: :class:`repro.sim.libc.ProvenanceRecord`); empty unless the run
    #: was executed with provenance enabled (the replay path).
    provenance: tuple = ()
    #: the run's per-function libc call counts when, and only when, it
    #: may stand as its test's fault-free run (:func:`repro.core.runner.
    #: golden_reach`): how the explorer's store learns a test's reach.
    #: A result replayed from a disk cache has lost its plan's hooks, so
    #: the receiver harvests only what its own plan says is hook-free.
    call_counts: dict[str, int] | None = None
    #: the rest of what :func:`repro.core.runner.record` keeps of a run.
    crash_message: str | None = None
    crash_stack: tuple[str, ...] | None = None
    failure_message: str | None = None
    open_fds: int = 0
    leaked_heap_bytes: int = 0

    @property
    def crashed(self) -> bool:
        return self.crash_kind in ("segfault", "abort", "exception")

    @property
    def hung(self) -> bool:
        return self.crash_kind == "hang"
