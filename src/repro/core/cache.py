"""Content-addressed memoization of test executions.

Every run in the simulated world is deterministic given
``(target, test, injection plan, trial, step budget)`` — see
:mod:`repro.sim.process`.  Fault-space exploration nevertheless
re-executes the same points constantly: ablation sweeps re-run identical
faults under every strategy variant, campaigns re-certify the same
system against overlapping spaces, report generation re-executes top
faults for precision trials, and replay re-runs everything.  A
:class:`ResultCache` makes all of those duplicates free.

The cache is keyed on the *content* of an execution:
``(target id, fault vector, trial, step budget)`` where the target id
also folds in the injector name (two injectors may compile the same
attribute dict into different plans).  Entries are LRU-evicted beyond
``capacity`` and can be persisted to JSON, so a warm cache survives
process boundaries — a second campaign over the same jobs replays from
disk instead of the simulator.  ``afex serve`` holds one cache for the
life of the process, behind every engine it pools (docs/SERVICE.md), so
an entry must be small: most of a result is its ``coverage`` set and
results repeat few distinct sets (1 000 ``replkv`` results: 114), so
live entries share one object per distinct set, through a table that
eviction and :meth:`ResultCache.clear` release.

Soundness caveat (documented in docs/ARCHITECTURE.md): the cache is
only valid while target code is unchanged.  The target id embeds
``name/version``, so bumping a target's ``version`` invalidates its
entries naturally; editing a target in place without bumping the
version requires clearing the cache.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
from collections import OrderedDict
from pathlib import Path

from typing import TYPE_CHECKING

from repro.core.fault import canonical

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import RunResult

__all__ = [
    "CacheKey",
    "DEFAULT_CAPACITY",
    "ResultCache",
    "canonical_json",
    "result_to_payload",
    "result_to_json",
    "result_from_payload",
    "sorted_json",
    "write_json_atomically",
    "write_text_atomically",
]

#: a fully-resolved execution identity, suitable as a dict key.
CacheKey = str

#: entries a :class:`ResultCache` keeps by default; the engine's report
#: memory (:class:`repro.core.runner.ReportMemory`) keeps as many.
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
    """LRU memoization of :class:`~repro.sim.process.RunResult`s.

    Thread-safe: the thread-pool fabric shares one cache across all its
    node managers.  (Process fabrics cannot share the in-memory dict —
    each worker process holds its own; cross-process reuse happens via
    :meth:`save` / :meth:`load` persistence instead.)
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, path: str | Path | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = Path(path) if path is not None else None
        self._entries: "OrderedDict[CacheKey, RunResult]" = OrderedDict()
        #: coverage set -> [the one object live entries share, entries
        #: sharing it]; holds exactly the distinct sets of ``_entries``.
        self._coverages: dict[frozenset, list] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if self.path is not None and self.path.exists():
            # A cache is an optimization: a corrupt or stale-format file
            # must not kill the run, it just means starting cold.
            try:
                self.load(self.path)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                warnings.warn(
                    f"ignoring unreadable result cache {self.path}: {exc}",
                    stacklevel=2,
                )
                self.clear()

    # -- keying ----------------------------------------------------------------

    @staticmethod
    def key_for(
        target_id: str,
        subspace: str,
        attributes: tuple[tuple[str, object], ...],
        trial: int,
        step_budget: int,
    ) -> CacheKey:
        """The content address of one execution.

        The key is a canonical JSON string so the same identity is
        computed for live lookups and for entries reloaded from disk
        (JSON cannot distinguish tuples from lists, so values are
        canonicalized before hashing).
        """
        return _KEY_JSON([
            target_id,
            subspace,
            [[name, canonical(value)] for name, value in attributes],
            trial,
            step_budget,
        ])

    # -- lookup ----------------------------------------------------------------

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
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._release(self._entries[key])
            self._entries[key] = result
            coverage = getattr(result, "coverage", None)
            if coverage is not None:
                shared = self._coverages.setdefault(coverage, [coverage, 0])
                shared[1] += 1
                result.coverage = shared[0]
            while len(self._entries) > self.capacity:
                self._release(self._entries.popitem(last=False)[1])
                self.evictions += 1

    def _release(self, result: "RunResult") -> None:
        """Drop one entry's share of its coverage set (lock held)."""
        coverage = getattr(result, "coverage", None)
        if coverage is not None:
            shared = self._coverages[coverage]
            shared[1] -= 1
            if not shared[1]:
                del self._coverages[coverage]

    def __len__(self) -> int:
        # CPython dict len() happens to be atomic, but a concurrent
        # put() may be mid-eviction; reading under the lock returns a
        # count that actually existed at some instant.
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._coverages.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters (reset only by constructing anew).

        The snapshot is taken under the cache lock, so the four counts
        are mutually consistent — an eviction racing this call can never
        show up in ``evictions`` while the evicted entry still counts in
        ``entries``.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def bind_metrics(self, registry: "object") -> None:
        """Publish this cache's statistics into a metrics registry.

        Registers a snapshot-time collector on a
        :class:`~repro.obs.metrics.MetricsRegistry` rather than paying
        per-operation increments: the cache already counts hits,
        misses, and evictions, so export pulls those totals into the
        ``cache.*`` gauges (plus the derived ``cache.hit_ratio``)
        whenever a snapshot is taken.  Idempotent per registry.
        """
        bound = getattr(self, "_bound_registries", None)
        if bound is None:
            bound = self._bound_registries = set()
        if id(registry) in bound:
            return
        bound.add(id(registry))

        def _collect(reg) -> None:
            for name, value in self.stats().items():
                reg.gauge(f"cache.{name}").set(value)
            reg.gauge("cache.hit_ratio").set(self.hit_rate)

        registry.register_collector(_collect)  # type: ignore[attr-defined]

    @property
    def hit_rate(self) -> float:
        # Both counters must come from the same instant: a get() racing
        # an unlocked read could bump one but not yet the other and
        # tear the ratio (hits > hits + misses reads > 1.0).
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    # -- persistence -----------------------------------------------------------

    def save(self, path: str | Path | None = None) -> None:
        """Persist every live entry as JSON (LRU order preserved).

        The write is atomic: the payload goes to a temporary file in
        the destination directory, is fsynced, and is then renamed over
        the destination with :func:`os.replace` — a crash mid-save can
        leave a stale cache, never a corrupt one.
        """
        destination = Path(path) if path is not None else self.path
        if destination is None:
            raise ValueError("no path given and cache has no default path")
        with self._lock:
            payload = {
                "version": 1,
                "capacity": self.capacity,
                "entries": [
                    [key, result_to_payload(result)]
                    for key, result in self._entries.items()
                ],
            }
        write_json_atomically(destination, payload)

    def load(self, path: str | Path | None = None) -> int:
        """Merge entries persisted with :meth:`save`; returns the count."""
        source = Path(path) if path is not None else self.path
        if source is None:
            raise ValueError("no path given and cache has no default path")
        data = json.loads(source.read_text())
        loaded = 0
        for key, payload in data["entries"]:
            self.put(key, result_from_payload(payload))
            loaded += 1
        return loaded


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
    wire format checkpoints, the store and replay share with the cache.

    Call traces are only populated by explicitly traced runs, which the
    runner never caches, so dropping ``trace`` loses nothing.

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


def result_to_json(result: "RunResult") -> str:
    """The canonical text of a result.  The one place it is produced —
    journal records, history digests, store rows and replay digests all
    hold or hash these bytes."""
    return canonical_json(result_to_payload(result))
