"""Content addresses of test executions, and the JSON codecs of results.

Every run in the simulated world is deterministic given
``(target, test, injection plan, trial, step budget)`` — see
:mod:`repro.sim.process`.  :meth:`ResultCache.key_for` is the content
address of one execution: ``(target id, fault vector, trial, step
budget)``, where the target id also folds in the fault model (two
models may compile the same attribute dict into different plans).  The
service's result store keys every row by its digest
(:func:`repro.service.store.scenario_key_digest`).

Remembering executions is the exploration loop's memo
(:class:`repro.core.runner.ReportMemory`); no product path builds a
:class:`ResultCache` any more.  What is left of it is the LRU
``get``/``put`` the per-layer ledger (``bench/ledger.py``) still times.

The rest of this module is the one JSON codec of a
:class:`~repro.sim.process.RunResult` or a history's
:class:`~repro.core.runner.Record` (:func:`result_to_payload`,
:func:`result_to_json`) that journals, digests and the store share —
:func:`record_from_payload` reads a record back, :func:`result_from_payload`
a full result — and the atomic file writes they use.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path

from typing import TYPE_CHECKING

from repro.core.fault import canonical

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runner import Record
    from repro.sim.process import RunResult

__all__ = [
    "CacheKey",
    "DEFAULT_CAPACITY",
    "ResultCache",
    "canonical_json",
    "result_to_payload",
    "result_to_json",
    "result_from_payload",
    "record_from_payload",
    "sorted_json",
    "write_json_atomically",
    "write_text_atomically",
]

#: a fully-resolved execution identity, suitable as a dict key.
CacheKey = str

#: entries a :class:`ResultCache` keeps by default (the loop's memo,
#: :class:`repro.core.runner.ReportMemory`, keeps its own 65 536).
DEFAULT_CAPACITY = 4096

# One prebuilt encoder per JSON dialect: ``json.dumps(v, **options)``
# builds a new ``JSONEncoder`` on every call, ``.encode(v)`` on a kept
# one writes the same bytes without that.
_KEY_JSON = json.JSONEncoder(separators=(",", ":")).encode
#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``: compact,
#: key-sorted JSON, the form that is hashed and journaled.
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":")
).encode
#: ``json.dumps(value, sort_keys=True)``: store columns, API bodies.
sorted_json = json.JSONEncoder(sort_keys=True).encode


class ResultCache:
    """LRU memoization of results by :meth:`key_for` address."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, RunResult]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key_for(
        target_id: str,
        subspace: str,
        attributes: tuple[tuple[str, object], ...],
        trial: int,
        step_budget: int,
    ) -> CacheKey:
        """The content address of one execution.

        A canonical JSON string, so a fault read back from JSON (which
        cannot tell tuples from lists) has its live address.
        """
        return _KEY_JSON([
            target_id,
            subspace,
            [[name, canonical(value)] for name, value in attributes],
            trial,
            step_budget,
        ])

    def get(self, key: CacheKey) -> "RunResult | None":
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def put(self, key: CacheKey, result: "RunResult") -> None:
        """Hold ``result`` as given: a record's outcome is already the
        one interned object (:class:`repro.core.runner.Outcome`)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = result
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1


def write_json_atomically(destination: Path, payload: object) -> None:
    """Durably replace ``destination`` with ``payload`` as JSON (see
    :func:`write_text_atomically`)."""
    write_text_atomically(destination, json.dumps(payload))


def write_text_atomically(destination: Path, text: str) -> None:
    """Durably replace ``destination`` with ``text``.

    temp file in the same directory → write → flush → fsync →
    :func:`os.replace`.  The rename is atomic on POSIX, so concurrent
    readers see either the old file or the new one, and a crash at any
    point leaves the previous contents intact.  The temp file is
    removed on failure.
    """
    destination = Path(destination)
    destination.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        dir=destination.parent, prefix=f".{destination.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, destination)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def result_to_payload(result: "RunResult") -> dict:
    """Full-fidelity JSON view of a RunResult (trace excluded): the
    wire format checkpoints, the store and replay share.

    Call traces are only populated by explicitly traced runs, which no
    history records, so dropping ``trace`` loses nothing.

    ``provenance`` is only present when non-empty: runs without the
    opt-in provenance log serialize to byte-identical payloads (and
    therefore byte-identical history digests) before and after the
    field existed.
    """
    payload = {
        "test_id": result.test_id,
        "test_name": result.test_name,
        "plan": result.plan.format(),
        "exit_code": result.exit_code,
        "crash_kind": result.crash_kind,
        "crash_message": result.crash_message,
        "crash_stack": list(result.crash_stack) if result.crash_stack else None,
        "injection_stack":
            list(result.injection_stack) if result.injection_stack else None,
        "injected": result.injected,
        "coverage": sorted(result.coverage),
        "steps": result.steps,
        "stdout": list(result.stdout),
        "stderr": list(result.stderr),
        "failure_message": result.failure_message,
        "measurements": result.measurements,
        "call_counts": result.call_counts,
        "open_fds": result.open_fds,
        "leaked_heap_bytes": result.leaked_heap_bytes,
        "invariant_violations": list(result.invariant_violations),
    }
    if result.provenance:
        payload["provenance"] = [list(record) for record in result.provenance]
    return payload


def result_from_payload(payload: dict) -> "RunResult":
    from repro.injection.plan import InjectionPlan
    from repro.sim.libc import ProvenanceRecord
    from repro.sim.process import RunResult

    return RunResult(
        test_id=payload["test_id"],
        test_name=payload["test_name"],
        plan=InjectionPlan.parse(payload["plan"]),
        exit_code=payload["exit_code"],
        crash_kind=payload["crash_kind"],
        crash_message=payload["crash_message"],
        crash_stack=tuple(payload["crash_stack"])
        if payload["crash_stack"] else None,
        injection_stack=tuple(payload["injection_stack"])
        if payload["injection_stack"] else None,
        injected=payload["injected"],
        coverage=frozenset(payload["coverage"]),
        steps=payload["steps"],
        stdout=tuple(payload["stdout"]),
        stderr=tuple(payload["stderr"]),
        failure_message=payload["failure_message"],
        measurements=dict(payload["measurements"]),
        call_counts={k: int(v) for k, v in payload["call_counts"].items()},
        open_fds=payload["open_fds"],
        leaked_heap_bytes=payload["leaked_heap_bytes"],
        invariant_violations=tuple(payload["invariant_violations"]),
        provenance=tuple(
            ProvenanceRecord.from_raw(row)
            for row in payload.get("provenance", ())
        ),
    )


def record_from_payload(payload: dict) -> "Record":
    """The record a result payload holds: a journal's or a store row's,
    or the :func:`~repro.core.runner.record` of the full result an old
    store row holds (only a full result names its test)."""
    from repro.core.runner import Record, outcome_of, record

    result = result_from_payload(payload)
    if result.test_name:
        return record(result)
    return Record(result.test_id, outcome_of(result, result.measurements))


def result_to_json(result: "RunResult") -> str:
    """The canonical text of a result.  The one place it is produced —
    journal records, history digests, store rows and replay digests all
    hold or hash these bytes."""
    return canonical_json(result_to_payload(result))
