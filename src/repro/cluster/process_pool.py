"""Process-pool execution fabric: real multi-core fault exploration.

The simulated world is pure Python, so the thread-pool fabric
(:class:`~repro.cluster.local.LocalCluster`) serializes on the GIL and
buys essentially no wall-clock on CPU-bound targets.  AFEX's exploration
is embarrassingly parallel (§6.1) — every test is an independent,
hermetic execution — so the natural fabric is one *process* per node,
which is exactly how the paper's prototype ran on 1–14 EC2 machines
(§7.7).

:class:`ProcessPoolCluster` plays that role on one machine:

* the pool starts and owns its worker processes, each **warm** and
  holding one duplex pipe to the parent: a worker builds its node
  manager once, at start-up, announces the manager's ``identity`` as its
  first message (checked against the pool's ``identity`` when one is
  given), and then answers one chunk per message until it is told to
  stop;
* requests are dispatched with a **chunked round-robin** scheduler: the
  dispatching thread writes one chunk per worker per batch straight to
  that worker's pipe and then waits on every pipe and every worker's
  exit sentinel at once, so the per-test IPC cost is amortized over a
  whole chunk and no relay thread sits in between (simulated tests run
  in ~0.2 ms; per-request round-trips would drown the speedup);
* reports return **in request order** regardless of completion order,
  keeping explorer bookkeeping deterministic, same as the other fabrics;
* the pool recovers on the **shared retry loop**: its own
  :class:`~repro.cluster.fault_tolerance.FaultTolerantFabric` wraps a
  fail-fast raw round, so retry, backoff, report validation and cause
  attribution are the same code every other fabric runs.  A round that
  loses a worker, or whose chunk outlives the optional
  ``dispatch_deadline``, kills and replaces the workers and raises; the
  loop re-dispatches the round onto the fresh processes and tallies
  every recovery action in a
  :class:`~repro.cluster.fault_tolerance.FabricHealth` record.  An
  exception raised *inside* a worker comes back as such and is re-raised
  without replacing anyone.  Once the policy's attempts are spent the
  batch fails with a :class:`~repro.errors.ClusterError` carrying that
  record;
* workers never outlive the parent: a forked worker closes every
  parent-side pipe end it inherited, so when the parent dies — even by
  SIGKILL — the parent's ends are gone, the worker reads EOF and exits;
* the dispatch path is **serialize-once**: the target factory is
  pickled a single time at construction (the picklability probe's
  bytes are cached per factory and shipped verbatim as the worker's
  start-up payload), and each round's chunks are pickled once and
  written to the pipes as bytes;
* construction takes a zero-argument **target factory** (e.g.
  ``functools.partial(target_by_name, "minidb")``) because target
  instances themselves close over test bodies and cannot be pickled;
  when the factory itself is unpicklable (a lambda, a closure), the
  cluster degrades **gracefully to an in-process LocalCluster** — same
  results, no parallelism — warning exactly once when the degradation
  engages.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import time
import types
import warnings
import weakref
from collections.abc import Callable
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import NamedTuple

from repro.cluster.fault_tolerance import (
    FabricHealth,
    FaultTolerantFabric,
    RetryPolicy,
)
from repro.cluster.local import LocalCluster
from repro.cluster.manager import NodeManager
from repro.cluster.messages import TestReport, TestRequest
from repro.errors import ClusterError
from repro.sim.testsuite import Target

__all__ = ["ProcessPoolCluster"]

TargetFactory = Callable[[], Target]

#: how long :meth:`ProcessPoolCluster.close` lets a worker exit on its
#: own after the shutdown message before killing it.
_GRACE_SECONDS = 5.0

#: cached picklability probes: factory → its encoded bytes.  The probe
#: doubles as the worker start-up payload, so a factory shared by many
#: fabrics (a campaign constructs one pool per job) is serialized
#: exactly once per process lifetime.  Weak keys keep the cache from
#: pinning factories (and the targets they close over) alive.
_FACTORY_BYTES: "weakref.WeakKeyDictionary[object, bytes]" = (
    weakref.WeakKeyDictionary()
)

#: the parent-side pipe end of every live worker this process started.
#: A forked worker inherits them all and closes them first thing; were
#: they left open, no worker would see EOF when the parent dies.
_PARENT_ENDS: "weakref.WeakSet[Connection]" = weakref.WeakSet()


def _encode_factory(factory: TargetFactory) -> bytes:
    """The factory's pickled bytes, cached across constructions.

    Raises whatever :func:`pickle.dumps` raises for an unpicklable
    factory — the caller turns that into the graceful in-process
    fallback.
    """
    try:
        cached = _FACTORY_BYTES.get(factory)
    except TypeError:  # unhashable factory: probe without caching
        cached = None
    if cached is not None:
        return cached
    data = pickle.dumps(factory, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        _FACTORY_BYTES[factory] = data
    except TypeError:  # not weak-referenceable (e.g. a plain function is;
        pass           # some callables are not) — probe still succeeded
    return data


def _reply(ok: bool, value: object) -> bytes:
    """One worker → parent message: ``(ok, value)``, where ``not ok``
    marks ``value`` as an exception raised inside the worker."""
    try:
        return pickle.dumps((ok, value), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # an unpicklable exception travels as its text
        return pickle.dumps((False, RuntimeError(repr(value))))


def _worker_main(
    conn: Connection,
    factory_bytes: bytes,
    injector_bytes: bytes | None,
) -> None:
    """A worker's whole life: build the node manager, announce its
    identity, then answer one pickled chunk per message until an empty
    message (shutdown) or EOF (the parent is gone).

    ``injector_bytes`` optionally carries a pickled zero-argument
    injector factory (e.g. a fault-model stack); ``None`` keeps the
    default errno-model injector.
    """
    for end in list(_PARENT_ENDS):  # inherited under fork; none under spawn
        end.close()
    try:
        try:
            factory: TargetFactory = pickle.loads(factory_bytes)
            injector_factory = (pickle.loads(injector_bytes)
                                if injector_bytes is not None else None)
            manager = NodeManager(
                f"proc-{os.getpid()}",
                factory(),
                injector=injector_factory() if callable(injector_factory) else None,
            )
        except Exception as exc:
            conn.send_bytes(_reply(False, exc))
            return
        conn.send_bytes(_reply(True, manager.identity))
        while packed := conn.recv_bytes():
            try:
                reply = _reply(True, [
                    manager.execute(request) for request in pickle.loads(packed)
                ])
            except Exception as exc:
                reply = _reply(False, exc)
            conn.send_bytes(reply)
    except (EOFError, OSError):  # the parent's end is closed: it is gone
        pass


def _unwrap(replies: list[tuple[bool, object]]) -> list:
    """The replies' values; re-raises the first exception a worker
    shipped back (the worker itself is fine and keeps its place)."""
    for ok, value in replies:
        if not ok:
            raise value  # type: ignore[misc]
    return [value for _, value in replies]


class _Worker(NamedTuple):
    process: BaseProcess
    conn: Connection


def _stop(workers: list[_Worker], graceful: bool) -> None:
    """Stop and reap ``workers``: when ``graceful``, send each the
    shutdown message and give it time to exit; kill whatever is alive."""
    if graceful:
        for worker in workers:
            with contextlib.suppress(OSError):
                worker.conn.send_bytes(b"")
        for worker in workers:
            worker.process.join(_GRACE_SECONDS)
    for worker in workers:
        if worker.process.exitcode is None:
            worker.process.kill()
    for worker in workers:
        worker.process.join()
        worker.process.close()
        worker.conn.close()
        _PARENT_ENDS.discard(worker.conn)


class ProcessPoolCluster:
    """Multi-process fabric: one warm worker process per virtual node."""

    def __init__(
        self,
        target_factory: TargetFactory,
        workers: int | None = None,
        name: str = "procpool",
        mp_context: str | None = None,
        retry_policy: RetryPolicy | None = None,
        dispatch_deadline: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
        injector_factory: Callable[[], object] | None = None,
        identity: str | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ClusterError(f"a process pool needs >= 1 worker, got {workers}")
        if dispatch_deadline is not None and dispatch_deadline <= 0:
            raise ClusterError(
                f"dispatch deadline must be positive, got {dispatch_deadline}"
            )
        self.target_factory = target_factory
        self.injector_factory = injector_factory
        self.workers = workers or (os.cpu_count() or 1)
        self.name = name
        self.retry_policy = retry_policy or RetryPolicy()
        self.dispatch_deadline = dispatch_deadline
        #: what every worker's node manager must report as its
        #: :attr:`NodeManager.identity`; None accepts any.
        self.identity = identity
        self.health = FabricHealth()
        self._recovery = FaultTolerantFabric(
            types.SimpleNamespace(run_batch=self._run_round),
            policy=self.retry_policy, health=self.health, sleep=sleep,
        )
        self._mp_context = mp_context
        self._workers: list[_Worker] | None = None
        self._fallback: LocalCluster | None = None
        self._fallback_warned = False
        #: why the fallback engaged, for operator-facing diagnostics.
        self.fallback_reason: str | None = None
        #: cumulative seconds spent pickling dispatch chunks — the
        #: pool's serialization cost, exported via :meth:`bind_metrics`.
        self.encode_seconds = 0.0
        #: the factory's pickled bytes, probed once (and cached across
        #: constructions) — shipped to workers as the start-up payload.
        self._factory_bytes: bytes | None = None
        self._injector_bytes: bytes | None = None
        try:
            self._factory_bytes = _encode_factory(target_factory)
            if injector_factory is not None:
                self._injector_bytes = pickle.dumps(
                    injector_factory, protocol=pickle.HIGHEST_PROTOCOL
                )
        except Exception as exc:
            self.fallback_reason = (
                f"target factory is not picklable ({exc!r}); "
                "running in-process on a thread-pool fabric"
            )

    def __len__(self) -> int:
        return self.workers

    @property
    def is_degraded(self) -> bool:
        """True when the cluster fell back to in-process execution."""
        return self.fallback_reason is not None

    @property
    def worker_pids(self) -> list[int]:
        """Process ids of the live workers (empty before the first batch
        and after :meth:`close`)."""
        return [worker.process.pid for worker in self._workers or ()]

    def _ensure_workers(self) -> list[_Worker]:
        """The warm workers, started (and their identities checked) on
        first use or after a replacement."""
        if self._workers is not None:
            return self._workers
        if self._mp_context is not None:
            context = multiprocessing.get_context(self._mp_context)
        elif "fork" in multiprocessing.get_all_start_methods():
            # fork inherits the imported simulator for free; spawn pays a
            # full re-import per worker.
            context = multiprocessing.get_context("fork")
        else:
            context = multiprocessing.get_context()
        workers: list[_Worker] = []
        try:
            for index in range(self.workers):
                conn, child_end = context.Pipe()
                _PARENT_ENDS.add(conn)  # before the fork: the child closes it
                process = context.Process(
                    target=_worker_main,
                    args=(child_end, self._factory_bytes,
                          self._injector_bytes),
                    name=f"{self.name}-worker{index}",
                    daemon=True,
                )
                process.start()
                child_end.close()
                workers.append(_Worker(process, conn))
            identities = set(_unwrap(self._gather(workers)))
            if self.identity is not None and identities != {self.identity}:
                raise ClusterError(
                    f"{self.name}: identity mismatch: the campaign runs "
                    f"{self.identity!r}, workers would run "
                    f"{sorted(identities - {self.identity})!r}"
                )
        except BaseException:
            _stop(workers, graceful=False)
            raise
        self._workers = workers
        return workers

    def _replace_workers(self) -> None:
        """Kill the workers; the next round starts fresh ones.

        A worker that died leaves its round unanswerable, and one that
        hangs holds its slot forever — either way the only safe recovery
        is fresh processes.
        """
        workers, self._workers = self._workers, None
        if workers is not None:
            _stop(workers, graceful=False)
            self.health.worker_replacements += 1

    def _ensure_fallback(self) -> LocalCluster:
        if self._fallback is None:
            if not self._fallback_warned:
                self._fallback_warned = True
                self.health.fallbacks += 1
                warnings.warn(
                    f"{self.name}: degrading to in-process execution — "
                    f"{self.fallback_reason or 'process pool unavailable'}",
                    stacklevel=3,
                )
            self._fallback = LocalCluster([
                NodeManager(
                    f"{self.name}-fallback{i}",
                    self.target_factory(),
                    injector=(self.injector_factory()
                              if self.injector_factory is not None else None),
                )
                for i in range(self.workers)
            ])
        return self._fallback

    def run_batch(self, requests: list[TestRequest]) -> list[TestReport]:
        """Execute a batch across the pool, chunked round-robin.

        Reports come back in request order regardless of worker
        completion order, so explorer bookkeeping stays deterministic.
        A round lost to a dead or hung worker is re-dispatched (with
        backoff) onto replacement workers by the shared retry loop; a
        worker of the wrong identity is a misconfiguration, raised here
        and not retried.
        """
        if not requests:
            return []
        if self.fallback_reason is not None:
            return self._ensure_fallback().run_batch(requests)
        self._ensure_workers()
        return self._recovery.run_batch(requests)

    def _run_round(self, requests: list[TestRequest]) -> list[TestReport]:
        """One fail-fast round: every chunk written once, or a raise.

        A dead worker, or a chunk still running after
        ``dispatch_deadline`` seconds, replaces the workers and raises
        (a deadline as the builtin :class:`TimeoutError`, which the
        retry loop attributes to ``timeout``).
        """
        chunks: list[list[TestRequest]] = [[] for _ in range(self.workers)]
        for i, request in enumerate(requests):
            chunks[i % self.workers].append(request)
        started = time.perf_counter()
        packed = [
            pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)
            for chunk in chunks if chunk
        ]
        self.encode_seconds += time.perf_counter() - started
        workers = self._ensure_workers()[:len(packed)]
        try:
            for worker, payload in zip(workers, packed):
                try:
                    worker.conn.send_bytes(payload)
                except OSError as exc:
                    raise self._lost(worker) from exc
            replies = self._gather(workers)
        except (TimeoutError, ClusterError):
            self._replace_workers()
            raise
        return [report for reports in _unwrap(replies) for report in reports]

    def _gather(self, workers: list[_Worker]) -> list[tuple[bool, object]]:
        """One ``(ok, value)`` reply from each of ``workers``, in their
        order; every reply is read, so no pipe is left holding one.

        Waits on every pipe and every exit sentinel at once, bounded by
        ``dispatch_deadline``.  Raises :class:`TimeoutError` at the
        deadline and :class:`ClusterError` for a worker that died.
        """
        replies: list = [None] * len(workers)
        waiting = {worker.conn: i for i, worker in enumerate(workers)}
        deadline = (None if self.dispatch_deadline is None
                    else time.monotonic() + self.dispatch_deadline)
        while waiting:
            sentinels = {workers[i].process.sentinel: i
                         for i in waiting.values()}
            timeout = (None if deadline is None
                       else max(0.0, deadline - time.monotonic()))
            ready = wait([*waiting, *sentinels], timeout)
            if not ready:
                raise TimeoutError(
                    f"{self.name}: a chunk outlived the "
                    f"{self.dispatch_deadline}s dispatch deadline"
                )
            for handle in ready:
                if handle in waiting:
                    index = waiting.pop(handle)
                    try:
                        replies[index] = pickle.loads(handle.recv_bytes())
                    except (EOFError, OSError) as exc:
                        raise self._lost(workers[index]) from exc
            for handle in ready:
                index = sentinels.get(handle)
                if index is not None and workers[index].conn in waiting:
                    raise self._lost(workers[index])
        return replies

    def _lost(self, worker: _Worker) -> ClusterError:
        return ClusterError(
            f"{self.name}: worker {worker.process.pid} died "
            f"(exit code {worker.process.exitcode})"
        )

    def bind_metrics(self, registry: "object") -> None:
        """Export the pool's dispatch-path cost gauges (idempotent per
        registry, same contract as :meth:`SocketFabric.bind_metrics
        <repro.cluster.socket_fabric.SocketFabric.bind_metrics>`)."""
        bound = getattr(self, "_bound_registries", None)
        if bound is None:
            bound = self._bound_registries = set()
        if id(registry) in bound:
            return
        bound.add(id(registry))

        def _collect(reg) -> None:
            reg.gauge("fabric.dispatch.encode_seconds").set(
                self.encode_seconds
            )

        registry.register_collector(_collect)  # type: ignore[attr-defined]

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        workers, self._workers = self._workers, None
        if workers is not None:
            _stop(workers, graceful=True)

    def __enter__(self) -> "ProcessPoolCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> str:
        mode = "degraded/in-process" if self.is_degraded else "multiprocess"
        return (
            f"{self.name}: {self.workers} workers ({mode}), "
            f"{self.retry_policy.describe()}"
        )
