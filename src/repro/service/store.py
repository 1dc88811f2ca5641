"""The persistent campaign/result archive behind the service.

A :class:`ResultStore` is a SQLite database holding everything a
long-running campaign service must not lose when a process dies:

* **campaigns** (jobs): tenant, spec, scheduling state, and — once
  finished — the history digest and the full outcome document;
* **results**: every executed test, stored **once** no matter how many
  campaigns executed it.  The primary key is the *scenario digest* — a
  SHA-256 over a :meth:`repro.core.cache.ResultCache.key_for` content
  address (target id, subspace, canonical attribute vector, trial, step
  budget).  The store's target id ends in the fault-model spec
  (``replkv/1.0.0/errno+disk``), a runner's identity in the injector
  name (``replkv/1.0.0/model:errno+disk``);
* **campaign_results**: the per-campaign ordered mapping onto those
  shared rows (sequence, impact, fitness), which is what makes a
  stored campaign re-renderable in execution order;
* **clusters**: the §5 redundancy clusters of each campaign's failures,
  with the representative member, persisting the quality analysis the
  later bug-report-driven modes (IBIR, PAPERS.md) will query.

Durability: SQLite with WAL journaling; each thread that touches the
store gets one connection of its own, opened on first use and kept
until :meth:`ResultStore.close` (a fresh connection per call cost more
than the queries it carried), so the store is safe to touch from
scheduler threads and CLI processes concurrently, and a SIGKILLed
server leaves a consistent database behind.
"""

from __future__ import annotations

import collections
import hashlib
import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.cache import (
    ResultCache, record_from_payload, result_from_payload, sorted_json,
)
from repro.core.fault import Fault, decanonical
from repro.sim.libc import DEFAULT_STEP_BUDGET

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.results import ExecutedTest, ResultSet

__all__ = ["ResultStore", "StoreReader", "StoredJob",
           "scenario_key_digest", "store_identity"]

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id TEXT PRIMARY KEY,
    tenant TEXT NOT NULL,
    label TEXT NOT NULL DEFAULT '',
    spec TEXT NOT NULL,
    state TEXT NOT NULL,
    priority INTEGER NOT NULL DEFAULT 0,
    seq INTEGER NOT NULL,
    created_s REAL NOT NULL,
    started_s REAL,
    finished_s REAL,
    digest TEXT,
    summary TEXT,
    document TEXT,
    error TEXT,
    checkpoint TEXT
);
CREATE INDEX IF NOT EXISTS campaigns_tenant ON campaigns (tenant, state);
CREATE TABLE IF NOT EXISTS results (
    digest TEXT PRIMARY KEY,
    target TEXT NOT NULL,
    fault_model TEXT NOT NULL,
    subspace TEXT NOT NULL DEFAULT '',
    attributes TEXT NOT NULL,
    payload TEXT NOT NULL,
    failed INTEGER NOT NULL,
    crashed INTEGER NOT NULL,
    hung INTEGER NOT NULL,
    crash_kind TEXT,
    first_campaign TEXT NOT NULL,
    created_s REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS results_target ON results (target, crashed, failed);
CREATE TABLE IF NOT EXISTS campaign_results (
    campaign_id TEXT NOT NULL,
    seq INTEGER NOT NULL,
    result_digest TEXT NOT NULL,
    impact REAL NOT NULL,
    fitness REAL NOT NULL,
    PRIMARY KEY (campaign_id, seq)
);
CREATE INDEX IF NOT EXISTS campaign_results_digest
    ON campaign_results (result_digest);
CREATE TABLE IF NOT EXISTS clusters (
    campaign_id TEXT NOT NULL,
    cluster_id INTEGER NOT NULL,
    size INTEGER NOT NULL,
    representative_seq INTEGER NOT NULL,
    representative_digest TEXT NOT NULL,
    PRIMARY KEY (campaign_id, cluster_id)
);
"""


def store_identity(name: str, version: str, fault_model: str) -> str:
    """``name/version/fault-model``: whose results a store row holds.

    ``fault_model`` is the canonical plugin spec, where a runner's
    identity has its injector name (``model:<spec>``).
    """
    return f"{name}/{version}/{fault_model}"


def scenario_key_digest(
    target_id: str,
    subspace: str,
    attributes: tuple,
    trial: int = 0,
) -> str:
    """SHA-256 of the :meth:`ResultCache.key_for` content address of
    ``target_id`` (``name/version/fault-model spec`` — a runner's
    identity spells the last part ``model:<spec>``, its injector name).

    This is the store's result identity: two campaigns that executed
    the same fault against the same target under the same fault model
    share one stored row.
    """
    key = ResultCache.key_for(
        target_id, subspace, attributes, trial, DEFAULT_STEP_BUDGET
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


@dataclass
class StoredJob:
    """One campaign job row, as the scheduler and the API see it."""

    id: str
    tenant: str
    label: str
    spec: dict
    state: str  # queued | running | done | failed
    priority: int
    seq: int
    created_s: float
    started_s: float | None = None
    finished_s: float | None = None
    digest: str | None = None
    summary: dict | None = None
    document: dict | None = None
    error: str | None = None
    checkpoint: str | None = None

    def as_dict(self, include_document: bool = True) -> dict[str, object]:
        doc: dict[str, object] = {
            "id": self.id,
            "tenant": self.tenant,
            "label": self.label,
            "spec": self.spec,
            "state": self.state,
            "priority": self.priority,
            "seq": self.seq,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "digest": self.digest,
            "summary": self.summary,
            "error": self.error,
        }
        if include_document:
            doc["document"] = self.document
        return doc


def _row_to_job(row: sqlite3.Row) -> StoredJob:
    return StoredJob(
        id=row["id"],
        tenant=row["tenant"],
        label=row["label"],
        spec=json.loads(row["spec"]),
        state=row["state"],
        priority=row["priority"],
        seq=row["seq"],
        created_s=row["created_s"],
        started_s=row["started_s"],
        finished_s=row["finished_s"],
        digest=row["digest"],
        summary=json.loads(row["summary"]) if row["summary"] else None,
        document=json.loads(row["document"]) if row["document"] else None,
        error=row["error"],
        checkpoint=row["checkpoint"],
    )


class StoreReader:
    """The results of the store file at ``path``, read without writing
    a byte into it (as :class:`ResultStore` does at open) or beside it.

    Without a -wal file every row is in the main file, which is opened
    as immutable: a read-only open of a WAL-mode file would create a
    -wal and -shm beside it and leave them.  With one (a live server's),
    the rows are read through the writer's.  A damaged file, or an
    SQLite file with no ``results`` table, raises
    :class:`sqlite3.DatabaseError`.  :class:`ResultStore` is the reader
    that also writes.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        source = self.path.resolve()
        mode = ("mode=ro" if Path(f"{source}-wal").exists()
                else "immutable=1")
        conn = sqlite3.connect(f"{source.as_uri()}?{mode}", uri=True)
        conn.row_factory = sqlite3.Row
        try:
            if conn.execute(
                    "SELECT 1 FROM sqlite_master "
                    "WHERE type = 'table' AND name = 'results'",
            ).fetchone() is None:
                raise sqlite3.DatabaseError(
                    "an SQLite file with no results table")
        except BaseException:
            conn.close()
            raise
        self._conn = conn

    def _connect(self) -> sqlite3.Connection:
        return self._conn

    def resolve_digest(self, prefix: str) -> list[str]:
        """Digests matching a (possibly short, git-style) crash-id prefix.

        Returns every match so the caller can distinguish "not found"
        from "ambiguous"; digests are hex, so no LIKE metacharacters.
        """
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT digest FROM results WHERE digest LIKE ? "
                "ORDER BY digest LIMIT 16",
                (prefix + "%",),
            ).fetchall()
        return [row["digest"] for row in rows]

    def result_row(self, digest: str) -> dict | None:
        """One stored result with full identity and payload (replay input)."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM results WHERE digest = ?", (digest,)
            ).fetchone()
        if row is None:
            return None
        return {
            "digest": row["digest"],
            "target": row["target"],
            "fault_model": row["fault_model"],
            "subspace": row["subspace"],
            "attributes": json.loads(row["attributes"]),
            "payload": json.loads(row["payload"]),
            "crash_kind": row["crash_kind"],
            "first_campaign": row["first_campaign"],
        }

    def executions(self, target_id: str) -> list[tuple[Fault, object]]:
        """Every stored ``(fault, record)`` of ``target_id``
        (``name/version/fault-model spec``), in no particular order."""
        rows = self._connect().execute(
            "SELECT subspace, attributes, payload FROM results "
            "WHERE target = ?", (target_id,),
        ).fetchall()
        return [
            (Fault(subspace, tuple(
                (name, decanonical(value))
                for name, value in json.loads(attributes))),
             record_from_payload(json.loads(payload)))
            for subspace, attributes, payload in rows
        ]

    def close(self) -> None:
        self._conn.close()


class ResultStore(StoreReader):
    """SQLite archive of campaigns, deduplicated results, and clusters."""

    def __init__(
        self,
        path: str | Path,
        *,
        clock=time.time,
        monotonic=time.monotonic,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Wall clock stamps the display columns (created_s/started_s/
        # finished_s); the monotonic clock measures durations, immune to
        # NTP steps and DST jumps mid-campaign.  Both injectable so
        # tests can freeze and step them deterministically.
        self._clock = clock
        self._monotonic = monotonic
        # Monotonic anchors of currently-running jobs and measured run
        # durations of finished ones.  In-memory is sound here:
        # ``requeue_incomplete`` flips running jobs back to queued on
        # restart, so every job that reaches done/failed started within
        # this process's monotonic epoch.
        self._running_anchor: dict[str, float] = {}
        self._durations: dict[str, float] = {}
        # Serializes writers inside this process; cross-process safety
        # comes from SQLite's own locking.
        self._lock = threading.Lock()
        # One connection per thread, all registered so close() finds them.
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        with self._connect() as conn:
            conn.executescript(_SCHEMA)
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
            # The totals :meth:`counters` reports, counted once here and
            # then kept by every write of this process: a metrics
            # snapshot (each job's closing checkpoint record takes one)
            # must not cost a scan of a table that grows for as long as
            # the service lives.  Rows another process writes into the
            # same file show at the next open.
            self._states: collections.Counter[str] = collections.Counter(
                dict(conn.execute(
                    "SELECT state, COUNT(*) FROM campaigns GROUP BY state"
                ).fetchall())
            )
            unique, crashes, failures = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(crashed), 0), "
                "COALESCE(SUM(failed), 0) FROM results"
            ).fetchone()
            executions = conn.execute(
                "SELECT COUNT(*) FROM campaign_results"
            ).fetchone()[0]
        self._totals = {
            "unique_results": unique,
            "recorded_executions": executions,
            "crashes": crashes,
            "failures": failures,
        }
        # Guards ``_states`` and ``_totals`` only, so that a snapshot
        # never waits for a writer's SQL.
        self._totals_lock = threading.Lock()

    def _connect(self) -> sqlite3.Connection:
        """The calling thread's connection, opened on first use.

        ``with conn:`` commits or rolls back and leaves it open.  Only
        its own thread ever runs statements on it;
        ``check_same_thread=False`` is there so that :meth:`close` may
        close it from whichever thread shuts the store down.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = sqlite3.connect(
                self.path, timeout=30.0, check_same_thread=False
            )
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            self._local.conn = conn
            with self._connections_lock:
                self._connections.append(conn)
        return conn

    def close(self) -> None:
        """Close every thread's connection; a later call reconnects."""
        with self._connections_lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()
        for conn in connections:
            conn.close()

    # -- job lifecycle ---------------------------------------------------------

    def create_job(
        self,
        job_id: str,
        tenant: str,
        spec: dict,
        *,
        priority: int = 0,
        label: str = "",
        checkpoint: str | None = None,
    ) -> StoredJob:
        now = self._clock()
        with self._lock, self._connect() as conn:
            seq = conn.execute(
                "SELECT COALESCE(MAX(seq), 0) + 1 FROM campaigns"
            ).fetchone()[0]
            conn.execute(
                "INSERT INTO campaigns (id, tenant, label, spec, state, "
                "priority, seq, created_s, checkpoint) "
                "VALUES (?, ?, ?, ?, 'queued', ?, ?, ?, ?)",
                (
                    job_id, tenant, label, sorted_json(spec),
                    priority, seq, now, checkpoint,
                ),
            )
        with self._totals_lock:
            self._states["queued"] += 1
        return self.job(job_id)  # type: ignore[return-value]

    def job(self, job_id: str) -> StoredJob | None:
        with self._connect() as conn:
            row = conn.execute(
                "SELECT * FROM campaigns WHERE id = ?", (job_id,)
            ).fetchone()
        return _row_to_job(row) if row is not None else None

    def jobs(
        self,
        tenant: str | None = None,
        state: str | None = None,
        limit: int = 200,
    ) -> list[StoredJob]:
        query = "SELECT * FROM campaigns"
        clauses, params = [], []
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if state is not None:
            clauses.append("state = ?")
            params.append(state)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY seq LIMIT ?"
        params.append(int(limit))
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        return [_row_to_job(row) for row in rows]

    def mark_running(self, job_id: str) -> None:
        with self._lock, self._connect() as conn:
            was = _state_of(conn, job_id)
            conn.execute(
                "UPDATE campaigns SET state = 'running', started_s = ? "
                "WHERE id = ?",
                (self._clock(), job_id),
            )
            self._running_anchor[job_id] = self._monotonic()
        self._moved(was, "running")

    def mark_done(
        self,
        job_id: str,
        *,
        digest: str,
        summary: dict,
        document: dict,
    ) -> None:
        with self._lock, self._connect() as conn:
            was = _state_of(conn, job_id)
            conn.execute(
                "UPDATE campaigns SET state = 'done', finished_s = ?, "
                "digest = ?, summary = ?, document = ?, error = NULL "
                "WHERE id = ?",
                (
                    self._clock(), digest,
                    sorted_json(summary), sorted_json(document),
                    job_id,
                ),
            )
            self._finish_duration(job_id)
        self._moved(was, "done")

    def mark_failed(self, job_id: str, error: str) -> None:
        with self._lock, self._connect() as conn:
            was = _state_of(conn, job_id)
            conn.execute(
                "UPDATE campaigns SET state = 'failed', finished_s = ?, "
                "error = ? WHERE id = ?",
                (self._clock(), str(error)[:2000], job_id),
            )
            self._finish_duration(job_id)
        self._moved(was, "failed")

    def _moved(self, was: str | None, state: str) -> None:
        """Count one committed transition of a job that was in state
        ``was`` (None: there is no such job, nothing moved)."""
        if was is None:
            return
        with self._totals_lock:
            self._states[was] -= 1
            self._states[state] += 1

    def _finish_duration(self, job_id: str) -> None:
        """Close a job's monotonic run-duration measurement (lock held)."""
        anchor = self._running_anchor.pop(job_id, None)
        if anchor is not None:
            self._durations[job_id] = max(0.0, self._monotonic() - anchor)

    def job_duration(self, job_id: str) -> float | None:
        """Monotonic run duration of a finished job, if measured here.

        None for jobs finished by another process (or before a restart);
        the wall-clock ``finished_s - started_s`` stays available for a
        coarse display value in that case.
        """
        return self._durations.get(job_id)

    def requeue_incomplete(self) -> list[StoredJob]:
        """Flip every non-terminal job back to ``queued`` (restart path).

        Completed results recorded before the crash stay put — the
        resumed campaign dedups against them — and a job with a
        checkpoint resumes byte-identically from it.
        """
        with self._lock, self._connect() as conn:
            conn.execute(
                "UPDATE campaigns SET state = 'queued', started_s = NULL "
                "WHERE state IN ('queued', 'running')"
            )
        with self._totals_lock:
            self._states["queued"] += self._states.pop("running", 0)
        return self.jobs(state="queued", limit=10_000)

    # -- results ---------------------------------------------------------------

    def record_campaign(
        self,
        job_id: str,
        results: "ResultSet",
        *,
        target_id: str,
        fault_model: str,
        cluster_distance: int = 1,
    ) -> dict[str, int]:
        """Archive one finished campaign's executions and clusters.

        Returns ``{"total": ..., "new": ..., "duplicates": ...}`` where
        duplicates are results some earlier campaign (or an earlier
        round of this one) already stored.
        """
        now = self._clock()
        digests = [
            scenario_key_digest(
                target_id, test.fault.subspace, test.fault.attributes
            )
            for test in results
        ]
        mapping = [
            (job_id, test.index, digest, test.impact, test.fitness)
            for test, digest in zip(results, digests)
        ]
        clusters = _failure_clusters(results, cluster_distance, digests)
        with self._lock, self._connect() as conn:
            # Only rows not stored yet are built: a campaign some earlier
            # one already ran costs index probes, not row texts.
            stored = _stored_digests(conn, digests)
            rows = []
            for test, digest in zip(results, digests):
                if digest in stored:
                    continue
                stored.add(digest)
                rows.append((
                    digest,
                    target_id,
                    fault_model,
                    test.fault.subspace,
                    sorted_json(
                        [[n, _jsonable(v)] for n, v in test.fault.attributes]
                    ),
                    test.result_json,
                    int(test.failed),
                    int(test.crashed),
                    int(test.hung),
                    test.result.crash_kind,
                    job_id,
                    now,
                ))
            # Ignored (already stored) rows do not count as changed.
            new = conn.executemany(
                "INSERT OR IGNORE INTO results (digest, target, "
                "fault_model, subspace, attributes, payload, failed, "
                "crashed, hung, crash_kind, first_campaign, created_s) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            ).rowcount
            recorded = {
                seq for (seq,) in conn.execute(
                    "SELECT seq FROM campaign_results WHERE campaign_id = ?",
                    (job_id,),
                )
            }
            conn.executemany(
                "INSERT OR REPLACE INTO campaign_results (campaign_id, "
                "seq, result_digest, impact, fitness) VALUES (?, ?, ?, ?, ?)",
                mapping,
            )
            conn.execute(
                "DELETE FROM clusters WHERE campaign_id = ?", (job_id,)
            )
            conn.executemany(
                "INSERT INTO clusters (campaign_id, cluster_id, size, "
                "representative_seq, representative_digest) "
                "VALUES (?, ?, ?, ?, ?)",
                [(job_id, *cluster) for cluster in clusters],
            )
        with self._totals_lock:
            totals = self._totals
            totals["unique_results"] += new
            totals["crashes"] += sum(row[7] for row in rows)
            totals["failures"] += sum(row[6] for row in rows)
            totals["recorded_executions"] += len(
                {row[1] for row in mapping} - recorded
            )
        return {
            "total": len(mapping),
            "new": new,
            "duplicates": len(mapping) - new,
        }

    def results(
        self,
        campaign: str | None = None,
        target: str | None = None,
        crashed: bool | None = None,
        failed: bool | None = None,
        min_impact: float | None = None,
        limit: int = 100,
    ) -> list[dict]:
        """Query stored results; rows are JSON-ready dicts.

        With ``campaign`` the per-campaign mapping is joined in
        (execution order, impact); otherwise the deduplicated archive
        is scanned directly.
        """
        params: list[object] = []
        if campaign is not None:
            query = (
                "SELECT r.*, cr.seq AS seq, cr.impact AS impact, "
                "cr.fitness AS fitness FROM campaign_results cr "
                "JOIN results r ON r.digest = cr.result_digest "
                "WHERE cr.campaign_id = ?"
            )
            params.append(campaign)
        else:
            query = "SELECT r.* FROM results r WHERE 1=1"
        if target is not None:
            query += " AND r.target LIKE ?"
            params.append(f"{target}%")
        if crashed is not None:
            query += " AND r.crashed = ?"
            params.append(int(crashed))
        if failed is not None:
            query += " AND r.failed = ?"
            params.append(int(failed))
        if campaign is not None and min_impact is not None:
            query += " AND cr.impact >= ?"
            params.append(float(min_impact))
        query += (
            " ORDER BY cr.seq" if campaign is not None
            else " ORDER BY r.created_s, r.digest"
        )
        query += " LIMIT ?"
        params.append(int(limit))
        with self._connect() as conn:
            rows = conn.execute(query, params).fetchall()
        out = []
        for row in rows:
            entry = {
                "digest": row["digest"],
                "target": row["target"],
                "fault_model": row["fault_model"],
                "subspace": row["subspace"],
                "attributes": json.loads(row["attributes"]),
                "failed": bool(row["failed"]),
                "crashed": bool(row["crashed"]),
                "hung": bool(row["hung"]),
                "crash_kind": row["crash_kind"],
                "first_campaign": row["first_campaign"],
            }
            keys = row.keys()
            if "impact" in keys:
                entry["impact"] = row["impact"]
            if "seq" in keys:
                entry["seq"] = row["seq"]
            out.append(entry)
        return out

    def load_result(self, digest: str):
        """Rehydrate one stored execution as a live ``RunResult``."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT payload FROM results WHERE digest = ?", (digest,)
            ).fetchone()
        if row is None:
            return None
        return result_from_payload(json.loads(row["payload"]))

    def clusters(self, campaign: str) -> list[dict]:
        with self._connect() as conn:
            rows = conn.execute(
                "SELECT * FROM clusters WHERE campaign_id = ? "
                "ORDER BY cluster_id",
                (campaign,),
            ).fetchall()
        return [
            {
                "cluster_id": row["cluster_id"],
                "size": row["size"],
                "representative_seq": row["representative_seq"],
                "representative_digest": row["representative_digest"],
            }
            for row in rows
        ]

    # -- statistics ------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Store-wide totals, including the cross-campaign dedup ratio
        and monotonic run-duration aggregates for jobs timed by this
        process.  Kept in memory (see ``__init__``): no SQL runs."""
        with self._totals_lock:
            by_state = dict(self._states)
            unique = self._totals["unique_results"]
            executions = self._totals["recorded_executions"]
            crashes = self._totals["crashes"]
            failures = self._totals["failures"]
        durations = list(self._durations.values())
        return {
            "campaigns": sum(by_state.values()),
            "queued": by_state.get("queued", 0),
            "running": by_state.get("running", 0),
            "done": by_state.get("done", 0),
            "failed_jobs": by_state.get("failed", 0),
            "unique_results": unique,
            "recorded_executions": executions,
            "deduplicated": executions - unique if executions else 0,
            "crashes": crashes,
            "failures": failures,
            "timed_jobs": len(durations),
            "run_seconds_total": round(sum(durations), 6),
            "run_seconds_max": round(max(durations, default=0.0), 6),
        }

    def bind_metrics(self, registry: object) -> None:
        """Export the store totals as ``service.store.*`` gauges."""

        def _collect(reg) -> None:
            for key, value in self.counters().items():
                reg.gauge(f"service.store.{key}").set(value)

        registry.register_collector(_collect)  # type: ignore[attr-defined]


def _state_of(conn: sqlite3.Connection, job_id: str) -> str | None:
    row = conn.execute(
        "SELECT state FROM campaigns WHERE id = ?", (job_id,)
    ).fetchone()
    return row[0] if row is not None else None


def _stored_digests(conn: sqlite3.Connection, digests: list[str]) -> set[str]:
    """Those of ``digests`` the ``results`` table holds (primary-key
    probes, a bounded number of parameters per statement)."""
    stored: set[str] = set()
    for at in range(0, len(digests), 500):
        chunk = digests[at:at + 500]
        stored.update(digest for (digest,) in conn.execute(
            "SELECT digest FROM results WHERE digest IN "
            f"({','.join('?' * len(chunk))})",
            chunk,
        ))
    return stored


def _jsonable(value: object) -> object:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)  # type: ignore[type-var]
    return value


def _failure_clusters(
    results: "ResultSet", cluster_distance: int, digests: list[str]
) -> list[tuple[int, int, int, str]]:
    """(cluster_id, size, representative_seq, representative_digest)
    rows for the campaign's failed tests (§5 redundancy clusters)."""
    failed: list[ExecutedTest] = [t for t in results if t.failed]
    if not failed:
        return []
    clusters = results.cluster(
        of=lambda t: t.failed, max_distance=cluster_distance
    )
    sizes: dict[int, int] = {}
    for position in range(len(failed)):
        cluster_id = clusters.cluster_of(position)
        sizes[cluster_id] = sizes.get(cluster_id, 0) + 1
    rows = []
    for position in clusters.representatives():
        cluster_id = clusters.cluster_of(position)
        representative = failed[position]
        rows.append((
            cluster_id,
            sizes[cluster_id],
            representative.index,
            digests[representative.index],
        ))
    return sorted(rows)
