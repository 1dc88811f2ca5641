"""Fleet-wide result deduplication for the elastic socket fabric.

The paper's campaigns re-propose scenarios constantly — a fitness-guided
search revisits promising regions, and a restarted round re-dispatches
in-flight work — and per-node :class:`~repro.core.cache.ResultCache`
instances only ever shortcut duplicates *that same node* happened to
execute.  On a fleet that is almost useless: the partitioner deliberately
spreads the fault space, so the node proposing a duplicate is rarely the
node that executed the original (IBIR-style campaign reuse, PAPERS.md).

:class:`FleetResultCache` moves the dedup point to the manager, which is
the one process that sees every completed report.  Each completed test
is recorded under its **scenario digest** — a SHA-256 over the canonical
JSON of ``(subspace, scenario)``, the same tuple↔list / frozenset↔sorted
canonicalization the wire codecs and the checkpoint format use — and a
later request with the same digest is answered straight from the cache
without dispatching at all.  Because the simulated executions are
deterministic per fault, the synthesized report is *identical* (minus
request id, wall-clock cost, and trace spans, none of which enter the
result history) to what a node would have produced, so the campaign's
``history_digest`` is byte-identical to single-node execution — a
differential test in ``tests/test_fleet.py`` proves it.

The manager also **broadcasts** newly recorded digests to the nodes
(piggybacked on the credit/dispatch path as ``digests`` control frames);
nodes accumulate the fleet-known set so their own accounting can tell a
first execution from a fleet-wide duplicate.  The digest list is
append-only and cursor-addressed, so each connection only ever receives
each digest once, regardless of reconnects racing the broadcast.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading

from repro.cluster.messages import TestReport, TestRequest
from repro.core.fault import canonical

__all__ = ["FleetResultCache", "scenario_digest"]


def scenario_digest(subspace: str, scenario: dict) -> str:
    """The fleet-wide identity of one test: sha256 of its canonical JSON.

    Request ids, placement, and trace context are deliberately excluded:
    two requests are duplicates exactly when they would execute the same
    fault against the same subspace.
    """
    payload = json.dumps(
        {
            "subspace": str(subspace),
            "scenario": {
                str(key): canonical(value)
                for key, value in dict(scenario).items()
            },
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def readdressed(report: TestReport, request_id: int) -> TestReport:
    """``report`` as the answer to another request for its scenario.

    Nothing ran, so nothing was traced and the answer is free: no spans,
    no cost, and a ``measurements`` dict of its own.  Every other field
    is exactly what a deterministic re-execution would have produced,
    which is why such an answer cannot move a history digest.
    """
    return dataclasses.replace(
        report, request_id=request_id, cost=0.0, spans=(),
        measurements=dict(report.measurements),
    )


class FleetResultCache:
    """Manager-side map from scenario digest to its completed report.

    Thread-safe (the fabric records from connection threads and looks up
    from the dispatch path).  ``capacity`` bounds memory by evicting the
    oldest recorded entry; the append-only digest *log* used for
    broadcast is not rewound by eviction — a node's "fleet has seen
    this" set is monotone by design.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"fleet cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: dict[str, TestReport] = {}
        self._log: list[str] = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def record(self, request: TestRequest, report: TestReport) -> str | None:
        """Remember one completed test; returns its digest when new."""
        digest = scenario_digest(request.subspace, request.scenario)
        with self._lock:
            if digest in self._entries:
                return None
            while len(self._entries) >= self.capacity:
                oldest = next(iter(self._entries))
                del self._entries[oldest]
                self.evictions += 1
            self._entries[digest] = report
            self._log.append(digest)
            return digest

    def synthesize(self, request: TestRequest) -> TestReport | None:
        """The cached report :func:`readdressed` to ``request``, or None
        on a miss."""
        digest = scenario_digest(request.subspace, request.scenario)
        with self._lock:
            cached = self._entries.get(digest)
            if cached is None:
                self.misses += 1
                return None
            self.hits += 1
        return readdressed(cached, request.request_id)

    def digests_since(self, cursor: int) -> tuple[int, list[str]]:
        """Digests recorded after ``cursor``; returns (new cursor, batch).

        Cursors are indexes into the append-only log, so per-connection
        cursors make the broadcast exactly-once per connection.
        """
        with self._lock:
            if cursor < 0:
                cursor = 0
            batch = self._log[cursor:]
            return len(self._log), batch

    def stats(self) -> dict[str, int | float]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }

    def describe(self) -> str:
        stats = self.stats()
        return (
            f"fleet cache: {stats['entries']} entries, "
            f"{stats['hits']} hits / {stats['misses']} misses "
            f"({stats['hit_rate']:.0%})"
        )
