"""The multi-tenant campaign service: ``afex serve`` and its API.

Three pieces, layered so each is testable on its own:

* :class:`JobQueue` — a *pure, synchronous* scheduler core.  Tenants
  have priorities and concurrency quotas; :meth:`JobQueue.pop` always
  returns the highest-priority eligible job (FIFO within a priority
  level) from a tenant below its quota.  No I/O, no clocks — the
  scheduling properties (higher priority never starved by lower,
  quota ceilings never exceeded) are checked by property tests;
* :class:`CampaignService` — the asyncio orchestration around the
  queue: jobs persist in a :class:`~repro.service.store.ResultStore`
  (submission survives a SIGKILL; incomplete jobs requeue on restart
  and resume from their server-side checkpoints), campaigns execute in
  a thread pool on *warm* :class:`~repro.service.engine.CampaignEngine`
  instances pooled by engine signature, and socket-fabric campaigns
  spawn their own ``afex node`` worker processes;
* the HTTP layer — a deliberately tiny stdlib HTTP/1.1 JSON API
  (``asyncio.start_server``; no framework dependencies) plus the
  matching :class:`ServiceClient` used by ``afex submit`` / ``afex
  jobs`` / ``afex results``.

API surface (all JSON)::

    GET  /v1/ping                  liveness + version
    POST /v1/campaigns             {tenant, spec, priority?, label?}
    GET  /v1/jobs                  ?tenant=&state=&limit=
    GET  /v1/jobs/<id>             full job envelope incl. document;
                                   ?wait=<seconds> holds the reply until
                                   the job is done/failed (30 s at most)
    GET  /v1/results               ?campaign=&target=&crashed=&limit=
    GET  /v1/stats                 queue + store + memo + engine-pool counters
    GET  /v1/metrics               Prometheus text exposition
    POST /v1/shutdown              graceful stop
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.parse
import uuid
import weakref
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.cache import sorted_json
from repro.core.runner import ReportMemory, publish_memo_stats
from repro.errors import ReportError
from repro.obs.export import to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.service.documents import campaign_document, verdict_of
from repro.service.engine import CampaignEngine
from repro.service.spec import CampaignSpec
from repro.service.store import ResultStore, StoredJob

__all__ = [
    "TenantConfig",
    "JobQueue",
    "QueuedJob",
    "CampaignService",
    "ServiceClient",
    "serve",
]

API_VERSION = 1
#: longest a ``GET /v1/jobs/<id>?wait=`` is held before answering with
#: whatever state the job is in; clients loop.
MAX_WAIT_S = 30.0


# -- scheduling core ---------------------------------------------------------------


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's scheduling contract."""

    name: str
    #: higher runs first; ties broken by submission order.
    priority: int = 0
    #: campaigns this tenant may have running at once.
    max_concurrent: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ReportError("tenant name must be non-empty")
        if self.max_concurrent < 1:
            raise ReportError(
                f"tenant {self.name!r}: max_concurrent must be >= 1, "
                f"got {self.max_concurrent}"
            )


@dataclass(frozen=True)
class QueuedJob:
    """A queue entry; ``priority`` is resolved at submission time."""

    job_id: str
    tenant: str
    priority: int
    seq: int


class JobQueue:
    """Priority + per-tenant-quota scheduler (pure, synchronous).

    Invariants (property-tested):

    * :meth:`pop` never returns a job whose tenant is at its
      ``max_concurrent`` quota;
    * among eligible jobs, the highest ``priority`` wins; within one
      priority, the lowest ``seq`` (FIFO) wins — so a higher-priority
      job is never starved by lower-priority traffic;
    * every submitted job is eventually returned exactly once, given
      that running jobs finish.
    """

    def __init__(
        self,
        tenants: "list[TenantConfig] | None" = None,
        *,
        default_priority: int = 0,
        default_quota: int = 1,
    ) -> None:
        self.default_priority = default_priority
        self.default_quota = default_quota
        self._tenants: dict[str, TenantConfig] = {}
        for tenant in tenants or []:
            self._tenants[tenant.name] = tenant
        self._queued: list[QueuedJob] = []
        self._running: dict[str, set[str]] = collections.defaultdict(set)
        self._tenant_of: dict[str, str] = {}
        self._seq = 0

    def configure(self, tenant: TenantConfig) -> None:
        self._tenants[tenant.name] = tenant

    def tenant(self, name: str) -> TenantConfig:
        """The tenant's config, defaulting unknown tenants (open door)."""
        config = self._tenants.get(name)
        if config is None:
            config = TenantConfig(
                name,
                priority=self.default_priority,
                max_concurrent=self.default_quota,
            )
            self._tenants[name] = config
        return config

    def push(
        self,
        job_id: str,
        tenant: str,
        *,
        priority: "int | None" = None,
        seq: "int | None" = None,
    ) -> QueuedJob:
        config = self.tenant(tenant)
        if seq is None:
            self._seq += 1
            seq = self._seq
        else:
            self._seq = max(self._seq, seq)
        entry = QueuedJob(
            job_id=job_id,
            tenant=tenant,
            priority=config.priority if priority is None else priority,
            seq=seq,
        )
        self._queued.append(entry)
        return entry

    def pop(self) -> "QueuedJob | None":
        """The next job to run, or None if nothing is eligible.

        The popped job is immediately accounted as running against its
        tenant's quota; callers must :meth:`finish` it.
        """
        best_at = -1
        best: "QueuedJob | None" = None
        for at, entry in enumerate(self._queued):
            config = self.tenant(entry.tenant)
            if len(self._running[entry.tenant]) >= config.max_concurrent:
                continue
            if best is None or (entry.priority, -entry.seq) > (
                best.priority, -best.seq
            ):
                best, best_at = entry, at
        if best is None:
            return None
        del self._queued[best_at]
        self._running[best.tenant].add(best.job_id)
        self._tenant_of[best.job_id] = best.tenant
        return best

    def finish(self, job_id: str) -> None:
        tenant = self._tenant_of.pop(job_id, None)
        if tenant is not None:
            self._running[tenant].discard(job_id)

    def running_count(self, tenant: "str | None" = None) -> int:
        if tenant is not None:
            return len(self._running[tenant])
        return sum(len(ids) for ids in self._running.values())

    def queued_count(self) -> int:
        return len(self._queued)

    def snapshot(self) -> dict[str, object]:
        return {
            "queued": self.queued_count(),
            "running": self.running_count(),
            "tenants": {
                name: {
                    "priority": config.priority,
                    "max_concurrent": config.max_concurrent,
                    "running": len(self._running[name]),
                    "queued": sum(
                        1 for e in self._queued if e.tenant == name
                    ),
                }
                for name, config in sorted(self._tenants.items())
            },
        }


# -- the service -------------------------------------------------------------------


class CampaignService:
    """Runs submitted campaigns on pooled warm engines, durably.

    Every job submission lands in the store *before* it is scheduled,
    so a killed server forgets nothing: on construction the service
    requeues every non-terminal job, and jobs that had written a
    server-side checkpoint resume from it (byte-identical history, per
    the checkpoint contract).
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        data_dir: "str | Path | None" = None,
        tenants: "list[TenantConfig] | None" = None,
        workers: int = 2,
        default_quota: int = 1,
        checkpoint_every: int = 10,
        node_wait: float = 60.0,
        metrics: "MetricsRegistry | None" = None,
        spawn_nodes: bool = True,
    ) -> None:
        self.store = store
        #: the service's memos, one per runner identity for the life of
        #: the process, each shared by every engine it pools for that
        #: identity whatever their fabric.
        self._memories: dict[tuple[str, str], ReportMemory] = {}
        self.data_dir = (
            Path(data_dir) if data_dir is not None
            else self.store.path.parent
        )
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(tenants, default_quota=default_quota)
        self.workers = max(int(workers), 1)
        self.checkpoint_every = checkpoint_every
        self.node_wait = node_wait
        self.spawn_nodes = spawn_nodes
        self.metrics = metrics or MetricsRegistry()
        self.store.bind_metrics(self.metrics)
        self.metrics.register_collector(
            lambda registry: publish_memo_stats(registry, self.memo_stats()))
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="afex-job"
        )
        self._engines: dict[tuple, list[CampaignEngine]] = {}
        self._engine_lock = threading.Lock()
        self._node_procs: dict[int, list[subprocess.Popen]] = {}
        self._wake = asyncio.Event()
        self._stopping = False
        self._scheduler_task: "asyncio.Task | None" = None
        self._inflight: set = set()
        #: job id -> event set when its worker returns (long-poll wake).
        self._settled: dict[str, asyncio.Event] = {}
        self.engines_built = 0
        self.engines_reused = 0
        # Crash recovery: everything non-terminal goes back on the queue.
        for job in self.store.requeue_incomplete():
            self.queue.push(
                job.id, job.tenant, priority=job.priority, seq=job.seq
            )

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        tenant: str,
        spec: "dict | CampaignSpec",
        *,
        priority: "int | None" = None,
        label: str = "",
    ) -> StoredJob:
        if not isinstance(spec, CampaignSpec):
            spec = CampaignSpec.from_dict(spec)
        if not tenant:
            raise ReportError("submission needs a tenant")
        job_id = f"job-{uuid.uuid4().hex[:12]}"
        entry = self.queue.push(job_id, tenant, priority=priority)
        checkpoint = str(self.data_dir / f"{job_id}.ckpt")
        job = self.store.create_job(
            job_id,
            tenant,
            spec.as_dict(),
            priority=entry.priority,
            label=label or spec.label,
            checkpoint=checkpoint,
        )
        self.metrics.counter("service.jobs.submitted").inc()
        self._wake.set()
        return job

    # -- engine pool -----------------------------------------------------------

    def _acquire_engine(self, spec: CampaignSpec) -> CampaignEngine:
        signature = spec.engine_signature()
        with self._engine_lock:
            idle = self._engines.get(signature)
            if idle:
                self.engines_reused += 1
                return idle.pop()
        self.engines_built += 1
        kwargs: dict = {
            "memory": self._memory_for(spec),
            "metrics": self.metrics,
            "name": f"svc-{spec.target}-{self.engines_built}",
            "node_wait": self.node_wait,
        }
        if spec.fabric == "socket" and self.spawn_nodes:
            kwargs["on_fabric"] = (
                lambda net: self._launch_nodes(net, spec)
            )
        return spec.build_engine(**kwargs)

    def _memory_for(self, spec: CampaignSpec) -> ReportMemory:
        """The memo of ``spec``'s runner identity: a spec-built engine
        runs ``target/version/model:<fault model>``, which the target
        name and the fault model determine."""
        with self._engine_lock:
            key = (spec.target, spec.fault_model)
            memory = self._memories.get(key)
            if memory is None:
                memory = self._memories[key] = ReportMemory()
            return memory

    def memo_stats(self) -> dict[str, int]:
        """Every memo's :meth:`~repro.core.runner.ReportMemory.stats`,
        summed."""
        with self._engine_lock:
            memories = list(self._memories.values())
        totals = dict.fromkeys(("entries", "hits", "misses", "evictions"), 0)
        for memory in memories:
            for name, value in memory.stats().items():
                totals[name] += value
        return totals

    def _release_engine(
        self, spec: CampaignSpec, engine: CampaignEngine
    ) -> None:
        with self._engine_lock:
            self._engines.setdefault(
                spec.engine_signature(), []
            ).append(engine)

    def _launch_nodes(self, net, spec: CampaignSpec) -> None:
        """Spawn the socket fabric's own ``afex node`` workers."""
        src_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_root), env.get("PYTHONPATH")) if p
        )
        procs = []
        for _ in range(spec.nodes):
            procs.append(subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "node",
                    "--connect", f"{net.host}:{net.port}",
                    "--target", spec.target,
                    "--fault-model", spec.fault_model,
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            ))
        self._node_procs[id(net)] = procs

    def _reap_nodes(self) -> None:
        for procs in self._node_procs.values():
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
        for procs in self._node_procs.values():
            for proc in procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
        self._node_procs.clear()

    # -- execution -------------------------------------------------------------

    def _fail(self, job_id: str, error: str) -> None:
        self.store.mark_failed(job_id, error)
        self.metrics.counter("service.jobs.failed").inc()

    def _run_job(self, entry: QueuedJob) -> None:
        """Execute one campaign (worker thread)."""
        job = self.store.job(entry.job_id)
        if job is None:  # pragma: no cover - store rows never vanish
            return
        try:
            spec = CampaignSpec.from_dict(job.spec)
        except ReportError as exc:
            self._fail(entry.job_id, f"bad spec: {exc}")
            return
        self.store.mark_running(entry.job_id)
        started = time.perf_counter()
        first_result_s: "list[float]" = []

        def on_test(_executed) -> None:
            if not first_result_s:
                first_result_s.append(time.perf_counter() - started)

        engine = self._acquire_engine(spec)
        try:
            checkpoint = Path(job.checkpoint) if job.checkpoint else None
            resume_from = (
                checkpoint if checkpoint and checkpoint.exists() else None
            )
            run = engine.explore(
                spec.build_space(engine.target),
                spec.build_strategy(),
                iterations=spec.iterations,
                seed=spec.seed,
                batch_size=spec.batch_size,
                checkpoint_path=checkpoint,
                checkpoint_every=(
                    self.checkpoint_every if checkpoint else 0
                ),
                checkpoint_meta={
                    "job": entry.job_id,
                    "tenant": entry.tenant,
                    "spec": spec.as_dict(),
                },
                resume_from=resume_from,
                online_quality=spec.online_quality,
                cluster_distance=spec.cluster_distance,
                similarity_threshold=spec.similarity_threshold,
                on_test=on_test,
            )
        except Exception as exc:
            engine.close()
            self._fail(entry.job_id, repr(exc))
            return
        finally:
            self._release_engine(spec, engine)
        try:
            self._archive(entry, spec, engine, run, first_result_s)
        except Exception as exc:
            # The campaign ran but could not be archived: the job must
            # not sit in ``running`` forever, and its checkpoint stays
            # on disk so the work is not lost with it.
            self._fail(entry.job_id, f"archiving failed: {exc!r}")
            return
        if checkpoint is not None:
            # The campaign is archived; its resume snapshot is spent.
            checkpoint.unlink(missing_ok=True)

    def _archive(
        self,
        entry: QueuedJob,
        spec: CampaignSpec,
        engine: CampaignEngine,
        run,
        first_result_s: "list[float]",
    ) -> None:
        """Store a finished campaign's results and mark the job done."""
        target_id = (
            f"{engine.target.name}/{engine.target.version}/"
            f"{spec.fault_model}"
        )
        dedup = self.store.record_campaign(
            entry.job_id,
            run.results,
            target_id=target_id,
            fault_model=spec.fault_model,
            cluster_distance=spec.cluster_distance,
        )
        document = campaign_document(
            run.results,
            campaign={
                "job": entry.job_id,
                "tenant": entry.tenant,
                **spec.as_dict(),
            },
            elapsed_seconds=run.seconds,
            fabric_health=run.health,
            quality_stats=run.quality_stats,
            golden_stats=run.golden_stats,
            remembered=run.remembered,
            top=spec.top,
            target=engine.target,
        )
        document["dedup"] = dedup
        if first_result_s:
            document["first_result_s"] = first_result_s[0]
            self.metrics.histogram(
                "service.job.first_result_s"
            ).observe(first_result_s[0])
        summary = dict(document["summary"])
        summary["verdict"] = document["verdict"]
        self.store.mark_done(
            entry.job_id,
            digest=run.digest,
            summary=summary,
            document=document,
        )
        self.metrics.counter("service.jobs.completed").inc()
        self.metrics.histogram("service.job.seconds").observe(run.seconds)

    # -- scheduling loop -------------------------------------------------------

    async def run(self) -> None:
        """Drive the queue until :meth:`shutdown` (asyncio task)."""
        loop = asyncio.get_running_loop()
        self._scheduler_task = asyncio.current_task()
        while not self._stopping:
            while (
                not self._stopping
                and len(self._inflight) < self.workers
            ):
                entry = self.queue.pop()
                if entry is None:
                    break
                future = loop.run_in_executor(
                    self._executor, self._run_job, entry
                )
                self._inflight.add(future)

                def _done(f, job_id=entry.job_id):
                    self._inflight.discard(f)
                    self.queue.finish(job_id)
                    self._wake.set()
                    settled = self._settled.pop(job_id, None)
                    if settled is not None:
                        settled.set()

                future.add_done_callback(_done)
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=0.5)
            except TimeoutError:
                pass

    async def settled(self, job_id: str, seconds: float) -> None:
        """Sleep on the event loop until the job's worker has returned
        or ``seconds`` have passed, whichever is first."""
        event = self._settled.setdefault(job_id, asyncio.Event())
        try:
            await asyncio.wait_for(event.wait(), timeout=seconds)
        except TimeoutError:
            pass

    def shutdown(self) -> None:
        self._stopping = True
        self._wake.set()
        for held in self._settled.values():
            held.set()  # answer every long-poll with the state as it is
        self._executor.shutdown(wait=True, cancel_futures=True)
        with self._engine_lock:
            engines = [e for pool in self._engines.values() for e in pool]
            self._engines.clear()
        for engine in engines:
            engine.close()
        self._reap_nodes()

    def replay_result(self, crash_id: str) -> dict[str, object]:
        """Deterministically re-execute one stored result by crash id.

        Resolves the (possibly abbreviated) id against this service's
        store, re-runs the scenario with provenance capture on, and
        diffs the outcome against the stored payload.  One simulated
        test is cheap, so this runs inline on the calling thread; raises
        :class:`~repro.errors.ReplayError` for unknown/ambiguous ids.
        """
        from repro.replay import replay

        return replay(crash_id, store=self.store).document()

    def stats(self) -> dict[str, object]:
        return {
            "version": API_VERSION,
            "workers": self.workers,
            "queue": self.queue.snapshot(),
            "store": self.store.counters(),
            "cache": self.memo_stats(),
            "engines": {
                "built": self.engines_built,
                "reused": self.engines_reused,
                "pooled": sum(
                    len(pool) for pool in self._engines.values()
                ),
            },
        }


# -- HTTP layer --------------------------------------------------------------------


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
}


def _parse_query(raw: str) -> dict[str, str]:
    return dict(urllib.parse.parse_qsl(raw, keep_blank_values=True))


def _as_bool(value: "str | None") -> "bool | None":
    if value is None or value == "":
        return None
    return value.lower() in ("1", "true", "yes", "on")


class _Api:
    """Routes HTTP requests onto a :class:`CampaignService`."""

    def __init__(self, service: CampaignService) -> None:
        self.service = service
        #: set once a shutdown request arrives; serve() watches it.
        self.shutdown_requested = asyncio.Event()
        #: the writers of kept-alive connections waiting for a request.
        self.idle: set[asyncio.StreamWriter] = set()

    async def dispatch(
        self, method: str, path: str, query: dict, body: "dict | None"
    ) -> dict:
        if path == "/v1/ping":
            return {
                "ok": True,
                "version": API_VERSION,
                "service": "afex-campaigns",
            }
        if path == "/v1/campaigns" and method == "POST":
            return self._submit(body or {})
        if path == "/v1/jobs" and method == "GET":
            jobs = self.service.store.jobs(
                tenant=query.get("tenant") or None,
                state=query.get("state") or None,
                limit=int(query.get("limit", 200)),
            )
            return {
                "jobs": [j.as_dict(include_document=False) for j in jobs]
            }
        if path.startswith("/v1/jobs/") and method == "GET":
            return await self._job(
                path[len("/v1/jobs/"):], query.get("wait")
            )
        if path.startswith("/v1/results/") and path.endswith("/replay"):
            if method != "POST":
                raise _HttpError(405, f"{method} not allowed on {path}")
            crash_id = path[len("/v1/results/"):-len("/replay")]
            from repro.errors import ReplayError

            try:
                return self.service.replay_result(crash_id)
            except ReplayError as exc:
                status = 404 if "not found" in str(exc) else 400
                raise _HttpError(status, str(exc)) from None
        if path == "/v1/results" and method == "GET":
            rows = self.service.store.results(
                campaign=query.get("campaign") or None,
                target=query.get("target") or None,
                crashed=_as_bool(query.get("crashed")),
                failed=_as_bool(query.get("failed")),
                min_impact=(
                    float(query["min_impact"])
                    if query.get("min_impact") else None
                ),
                limit=int(query.get("limit", 100)),
            )
            return {"results": rows}
        if path == "/v1/stats" and method == "GET":
            return self.service.stats()
        if path == "/v1/shutdown" and method == "POST":
            self.shutdown_requested.set()
            return {"ok": True, "stopping": True}
        if path in (
            "/v1/ping", "/v1/stats", "/v1/jobs", "/v1/results"
        ):
            raise _HttpError(405, f"{method} not allowed on {path}")
        raise _HttpError(404, f"no route for {path}")

    async def _job(self, job_id: str, wait: "str | None") -> dict:
        """``GET /v1/jobs/<id>[?wait=<seconds>]``: with ``wait``, a job
        that is not yet done/failed holds the reply — on the event loop,
        no thread and no store polling — until its worker returns."""
        try:
            seconds = 0.0 if wait is None else float(wait)
        except ValueError:
            seconds = -1.0
        if not seconds >= 0:  # negative, NaN, or not a number
            raise _HttpError(
                400, "'wait' must be a non-negative number of seconds"
            )
        job = self.service.store.job(job_id)
        if job is not None and seconds and job.state in ("queued", "running"):
            await self.service.settled(job_id, min(seconds, MAX_WAIT_S))
            job = self.service.store.job(job_id)
        if job is None:
            raise _HttpError(404, "no such job")
        return {"job": job.as_dict()}

    def _submit(self, body: dict) -> dict:
        tenant = body.get("tenant")
        if not tenant or not isinstance(tenant, str):
            raise _HttpError(400, "submission needs a 'tenant' string")
        raw_spec = body.get("spec")
        if not isinstance(raw_spec, dict):
            raise _HttpError(400, "submission needs a 'spec' object")
        priority = body.get("priority")
        if priority is not None and not isinstance(priority, int):
            raise _HttpError(400, "'priority' must be an integer")
        try:
            job = self.service.submit(
                tenant,
                raw_spec,
                priority=priority,
                label=str(body.get("label", "")),
            )
        except ReportError as exc:
            raise _HttpError(400, str(exc)) from None
        return {"job": job.as_dict(include_document=False)}


async def _read_request(
    reader: asyncio.StreamReader,
) -> "tuple[str, str, bool, bytes] | None":
    """One request off a connection: ``(method, target, keep_alive,
    body)``; None at a clean end of the connection.  A malformed request
    raises ``ValueError`` (the connection is closed without a reply)."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ValueError(f"bad request line {request_line[:80]!r}")
    method, raw_target, version = parts
    # HTTP/1.1 keeps a connection open unless told otherwise; anything
    # older is closed after its reply.
    keep_alive = version == "HTTP/1.1"
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            content_length = int(value.strip())
        elif name == "connection" and "close" in (
                token.strip() for token in value.lower().split(",")):
            keep_alive = False
    body = await reader.readexactly(content_length) if content_length else b""
    return method.upper(), raw_target, keep_alive, body


async def _respond(api: _Api, method: str, raw_target: str, body_bytes: bytes
                   ) -> "tuple[int, str, bytes]":
    """``(status, content type, body)`` for one request."""
    path, _, raw_query = raw_target.partition("?")
    try:
        body = json.loads(body_bytes) if body_bytes else None
        if body_bytes and not isinstance(body, dict):
            raise _HttpError(400, "request body must be a JSON object")
        if path == "/v1/metrics" and method == "GET":
            data = to_prometheus(api.service.metrics).encode("utf-8")
            return 200, "text/plain; version=0.0.4", data
        payload = await api.dispatch(
            method, path, _parse_query(raw_query), body
        )
        status = 200
    except _HttpError as exc:
        status, payload = exc.status, {"error": str(exc)}
    except json.JSONDecodeError as exc:
        status, payload = 400, {"error": f"bad JSON body: {exc}"}
    except Exception as exc:  # noqa: BLE001 - fault-tolerant server
        status, payload = 500, {"error": repr(exc)}
    return status, "application/json", sorted_json(payload).encode("utf-8")


async def _handle_connection(
    api: _Api,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve requests off one connection, in order, until the client
    closes it, asks for ``Connection: close`` or speaks HTTP/1.0, or
    the service stops.  While it waits for a request the connection is
    in ``api.idle``, where shutdown finds it."""
    try:
        while not api.shutdown_requested.is_set():
            api.idle.add(writer)
            try:
                request = await _read_request(reader)
            finally:
                api.idle.discard(writer)
            if request is None:
                break
            method, raw_target, keep_alive, body = request
            status, content_type, data = await _respond(
                api, method, raw_target, body
            )
            keep_alive = keep_alive and not api.shutdown_requested.is_set()
            head = (
                f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(data)}\r\n"
            )
            if not keep_alive:
                head += "Connection: close\r\n"
            writer.write(f"{head}\r\n".encode("latin-1") + data)
            await writer.drain()
            if not keep_alive:
                break
    except (
        asyncio.IncompleteReadError, ConnectionError, ValueError,
    ):
        pass  # a client hangup, or a request we cannot parse
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:  # pragma: no cover
            pass


async def serve(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    on_listen=None,
) -> None:
    """Run the scheduler and the HTTP API until shutdown."""
    api = _Api(service)

    async def handler(reader, writer):
        await _handle_connection(api, reader, writer)

    server = await asyncio.start_server(handler, host, port)
    bound = server.sockets[0].getsockname()
    if on_listen is not None:
        on_listen(bound[0], bound[1])
    scheduler = asyncio.ensure_future(service.run())
    try:
        await api.shutdown_requested.wait()
    finally:
        server.close()
        service.shutdown()
        # Kept-alive connections waiting for their next request end
        # here; the busy ones end after their reply.  From Python 3.12
        # on, wait_closed() waits for every connection, and after
        # shutdown() because that releases the held long-polls.
        for writer in list(api.idle):
            writer.close()
        await server.wait_closed()
        scheduler.cancel()
        try:
            await scheduler
        except asyncio.CancelledError:
            pass


# -- the client --------------------------------------------------------------------


class _KeptConnection:
    """A thread's connection, closed when the thread ends and drops it."""

    __slots__ = ("conn",)

    def __init__(self, conn: http.client.HTTPConnection) -> None:
        self.conn = conn

    def __del__(self) -> None:
        self.conn.close()


class ServiceClient:
    """Tiny stdlib client for the campaign service API.

    Each thread that uses a client keeps one HTTP/1.1 connection to the
    service and sends every call of that thread over it.  A GET that
    finds its kept connection closed by the server (a restart, say) is
    sent once more on a new one; a POST is never sent twice."""

    def __init__(self, endpoint: str, timeout: float = 30.0) -> None:
        self.endpoint = endpoint.rstrip("/")
        if "://" not in self.endpoint:
            self.endpoint = f"http://{self.endpoint}"
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.endpoint)
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()
        # A thread's connection lives as long as the thread (its
        # ``local`` slot holds it); this set only lets close() reach it.
        self._connections: "weakref.WeakSet[http.client.HTTPConnection]" = (
            weakref.WeakSet()
        )
        self._connections_lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        kept = getattr(self._local, "kept", None)
        if kept is None:
            kept = self._local.kept = _KeptConnection(
                self._connection_class(self._netloc)
            )
            with self._connections_lock:
                self._connections.add(kept.conn)
        return kept.conn

    def close(self) -> None:
        """Close the connection of every thread that has one; a later
        call opens a new one."""
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def _exchange(
        self,
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        data: "bytes | None",
        timeout: float,
    ) -> "tuple[int, str, bytes]":
        """One request and its whole reply on ``conn``."""
        if conn.sock is None:
            conn.timeout = timeout
            conn.connect()
            # Headers and body leave in two sends; without this the
            # body waits for the server's delayed ACK of the headers.
            conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        else:
            conn.sock.settimeout(timeout)
        conn.request(
            method, f"{self._prefix}{path}", body=data,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.reason, response.read()

    def _request(
        self,
        method: str,
        path: str,
        body: "dict | None" = None,
        held_s: float = 0.0,
    ) -> dict:
        """One API call; ``held_s`` is how long the server may hold the
        reply on purpose, added to the socket timeout."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        conn = self._connection()
        while True:
            kept = conn.sock is not None
            try:
                status, reason, raw = self._exchange(
                    conn, method, path, data, self.timeout + held_s
                )
                break
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if kept and method == "GET" and isinstance(
                        exc, ConnectionError):
                    continue  # the server closed the kept connection
                # Refused, timed out, or a server that died while
                # holding the reply.
                raise ReportError(
                    f"cannot reach service at {self.endpoint}: "
                    f"{str(exc) or repr(exc)}"
                ) from None
        if status >= 400:
            try:
                message = json.loads(raw.decode("utf-8")).get(
                    "error", f"HTTP Error {status}: {reason}"
                )
            except (ValueError, AttributeError):
                message = f"HTTP Error {status}: {reason}"
            raise ReportError(f"service error {status}: {message}")
        return json.loads(raw.decode("utf-8"))

    def ping(self) -> dict:
        return self._request("GET", "/v1/ping")

    def submit(
        self,
        tenant: str,
        spec: "dict | CampaignSpec",
        *,
        priority: "int | None" = None,
        label: str = "",
    ) -> dict:
        if isinstance(spec, CampaignSpec):
            spec = spec.as_dict()
        payload: dict = {"tenant": tenant, "spec": spec, "label": label}
        if priority is not None:
            payload["priority"] = priority
        return self._request("POST", "/v1/campaigns", payload)["job"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def jobs(
        self,
        tenant: "str | None" = None,
        state: "str | None" = None,
        limit: int = 200,
    ) -> list:
        query = [f"limit={int(limit)}"]
        if tenant:
            query.append(f"tenant={tenant}")
        if state:
            query.append(f"state={state}")
        return self._request(
            "GET", "/v1/jobs?" + "&".join(query)
        )["jobs"]

    def results(self, **filters) -> list:
        query = "&".join(
            f"{key}={value}" for key, value in filters.items()
            if value is not None
        )
        return self._request(
            "GET", f"/v1/results?{query}" if query else "/v1/results"
        )["results"]

    def replay(self, crash_id: str) -> dict:
        """Server-side replay of one stored result by crash id."""
        return self._request("POST", f"/v1/results/{crash_id}/replay")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def shutdown(self) -> dict:
        return self._request("POST", "/v1/shutdown")

    def wait(self, job_id: str, timeout: float = 600.0) -> dict:
        """Block until the job reaches a terminal state.

        Long-polls ``GET /v1/jobs/<id>?wait=``: the server answers the
        moment the job ends, so there is no client-side sleep."""
        deadline = time.monotonic() + timeout
        while True:
            held = min(max(deadline - time.monotonic(), 0.0), MAX_WAIT_S)
            job = self._request(
                "GET", f"/v1/jobs/{job_id}?wait={held:.3f}", held_s=held
            )["job"]
            if job["state"] in ("done", "failed"):
                return job
            if time.monotonic() >= deadline:
                raise ReportError(
                    f"job {job_id} still {job['state']} after "
                    f"{timeout:.0f}s"
                )
