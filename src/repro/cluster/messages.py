"""Explorer ↔ node-manager protocol messages.

Messages are plain frozen dataclasses.  The scenario inside a
:class:`TestRequest` is the AFEX-internal fault representation (named
attribute dict of built-in values); the manager's plugins translate it
for the concrete injectors (§6.1).  A :class:`TestReport` carries the
record of the run it reports — the one result every path keeps — plus
what only the transport needs; :mod:`repro.cluster.wire` writes the
record field by field.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.runner import Record

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
    #: the record of the execution (:func:`repro.core.runner.record`):
    #: what the explorer's history keeps of it, on every path.  Its
    #: outcome carries the injection stack's digest, computed
    #: worker-side.
    result: Record
    #: manager-side wall-clock (or virtual) execution cost in seconds.
    cost: float = 0.0
    #: worker-side span events (see :func:`repro.obs.trace.worker_spans`),
    #: shipped back across the process boundary for the explorer's
    #: tracer to absorb; empty when the request carried no trace id.
    spans: tuple = ()
    #: the run's per-function libc call counts when, and only when, it
    #: may stand as its test's fault-free run (:func:`repro.core.runner.
    #: golden_reach`): how the explorer's store learns a test's reach.
    #: The receiver harvests only what its own plan says is hook-free.
    call_counts: dict[str, int] | None = None
