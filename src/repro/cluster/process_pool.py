"""Process-pool execution fabric: real multi-core fault exploration.

The simulated world is pure Python, so the thread-pool fabric
(:class:`~repro.cluster.local.LocalCluster`) serializes on the GIL and
buys essentially no wall-clock on CPU-bound targets.  AFEX's exploration
is embarrassingly parallel (§6.1) — every test is an independent,
hermetic execution — so the natural fabric is one *process* per node,
which is exactly how the paper's prototype ran on 1–14 EC2 machines
(§7.7).

:class:`ProcessPoolCluster` plays that role on one machine:

* worker processes are long-lived and **warm** — each builds its target
  (and the target's test suite) once, lazily, on its first request, and
  reuses it for every subsequent batch;
* requests are dispatched with a **chunked round-robin** scheduler: one
  future per worker per batch, so the per-test IPC cost is amortized
  over a whole chunk (simulated tests run in ~0.2 ms; per-request
  round-trips would drown the speedup in pickling);
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
  :class:`~repro.cluster.fault_tolerance.FabricHealth` record.  Once
  the policy's attempts are spent the batch fails with a
  :class:`~repro.errors.ClusterError` carrying that record;
* the dispatch path is **serialize-once**: the target factory is
  pickled a single time at construction (the picklability probe's
  bytes are cached per factory and shipped verbatim as the worker-init
  payload), and each round's chunks are pickled once and submitted as
  bytes, so the executor's own pickling degenerates to a byte copy;
* construction takes a zero-argument **target factory** (e.g.
  ``functools.partial(target_by_name, "minidb")``) because target
  instances themselves close over test bodies and cannot be pickled;
  when the factory itself is unpicklable (a lambda, a closure), the
  cluster degrades **gracefully to an in-process LocalCluster** — same
  results, no parallelism — warning exactly once when the degradation
  engages.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import types
import warnings
import weakref
from collections.abc import Callable
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout

from repro.cluster.fault_tolerance import (
    FabricHealth,
    FaultTolerantFabric,
    RetryPolicy,
)
from repro.cluster.local import LocalCluster
from repro.cluster.manager import NodeManager
from repro.cluster.messages import TestReport, TestRequest
from repro.errors import ClusterError
from repro.sim.libc import DEFAULT_STEP_BUDGET
from repro.sim.testsuite import Target

__all__ = ["ProcessPoolCluster"]

TargetFactory = Callable[[], Target]

#: per-worker-process state: the factory and the lazily-built manager.
_WORKER_STATE: dict[str, object] = {}

#: cached picklability probes: factory → its encoded bytes.  The probe
#: doubles as the worker-initialization payload, so a factory shared by
#: many fabrics (a campaign constructs one pool per job) is serialized
#: exactly once per process lifetime.  Weak keys keep the cache from
#: pinning factories (and the targets they close over) alive.
_FACTORY_BYTES: "weakref.WeakKeyDictionary[object, bytes]" = (
    weakref.WeakKeyDictionary()
)


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


def _worker_init(
    factory_bytes: bytes,
    step_budget: int,
    injector_bytes: bytes | None = None,
) -> None:
    """Runs once in each worker process; defers the expensive build.

    Receives the factory pre-pickled (the construction-time probe's
    bytes, shipped verbatim) so the parent never re-serializes it —
    neither per dispatch nor per pool rebuild.  ``injector_bytes``
    optionally carries a pickled zero-argument injector factory (e.g. a
    fault-model stack); ``None`` keeps the default errno-model injector.
    """
    _WORKER_STATE["factory"] = pickle.loads(factory_bytes)
    _WORKER_STATE["step_budget"] = step_budget
    _WORKER_STATE["injector_factory"] = (
        pickle.loads(injector_bytes) if injector_bytes is not None else None
    )
    _WORKER_STATE["manager"] = None


def _worker_run_chunk(packed: bytes) -> bytes:
    """Execute one pre-packed chunk on this worker's warm node manager.

    Takes the chunk as pickled bytes (packed once by the parent) and
    returns the reports the same way, so the executor's own
    argument/result pickling degenerates to a byte-string copy.
    """
    requests: list[TestRequest] = pickle.loads(packed)
    manager = _WORKER_STATE.get("manager")
    if manager is None:
        factory: TargetFactory = _WORKER_STATE["factory"]  # type: ignore[assignment]
        injector_factory = _WORKER_STATE.get("injector_factory")
        manager = NodeManager(
            f"proc-{os.getpid()}",
            factory(),
            injector=injector_factory() if callable(injector_factory) else None,
            step_budget=int(_WORKER_STATE["step_budget"]),  # type: ignore[arg-type]
        )
        _WORKER_STATE["manager"] = manager
    return pickle.dumps(
        [manager.execute(request) for request in requests],
        protocol=pickle.HIGHEST_PROTOCOL,
    )


class ProcessPoolCluster:
    """Multi-process fabric: one warm worker process per virtual node."""

    def __init__(
        self,
        target_factory: TargetFactory,
        workers: int | None = None,
        step_budget: int = DEFAULT_STEP_BUDGET,
        name: str = "procpool",
        mp_context: str | None = None,
        retry_policy: RetryPolicy | None = None,
        dispatch_deadline: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
        injector_factory: Callable[[], object] | None = None,
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
        self.step_budget = step_budget
        self.name = name
        self.retry_policy = retry_policy or RetryPolicy()
        self.dispatch_deadline = dispatch_deadline
        self.health = FabricHealth()
        self._recovery = FaultTolerantFabric(
            types.SimpleNamespace(run_batch=self._run_round),
            policy=self.retry_policy, health=self.health, sleep=sleep,
        )
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None
        self._fallback: LocalCluster | None = None
        self._fallback_warned = False
        #: why the fallback engaged, for operator-facing diagnostics.
        self.fallback_reason: str | None = None
        #: cumulative seconds spent pickling dispatch chunks — the
        #: pool's serialization cost, exported via :meth:`bind_metrics`.
        self.encode_seconds = 0.0
        #: the factory's pickled bytes, probed once (and cached across
        #: constructions) — shipped to workers as the init payload.
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

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            if self._mp_context is not None:
                context = multiprocessing.get_context(self._mp_context)
            elif "fork" in multiprocessing.get_all_start_methods():
                # fork inherits the imported simulator for free; spawn
                # pays a full re-import per worker.
                context = multiprocessing.get_context("fork")
            else:
                context = multiprocessing.get_context()
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_worker_init,
                initargs=(self._factory_bytes, self.step_budget,
                          self._injector_bytes),
            )
        return self._executor

    def _replace_workers(self) -> None:
        """Kill the workers and let the next dispatch rebuild the pool.

        A worker that died took its siblings' executor down with it
        (that is how :class:`ProcessPoolExecutor` reports a crash), and
        a worker that hangs holds its slot forever — either way the
        only safe recovery is fresh processes.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        # shutdown() cannot stop a worker stuck in a test, and the
        # executor offers no public handle on its processes.
        for process in list((executor._processes or {}).values()):
            process.kill()
        executor.shutdown(wait=False, cancel_futures=True)
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
                    step_budget=self.step_budget,
                )
                for i in range(self.workers)
            ])
        return self._fallback

    def run_batch(self, requests: list[TestRequest]) -> list[TestReport]:
        """Execute a batch across the pool, chunked round-robin.

        Reports come back in request order regardless of worker
        completion order, so explorer bookkeeping stays deterministic.
        A round lost to a dead or hung worker is re-dispatched (with
        backoff) onto replacement workers by the shared retry loop.
        """
        if not requests:
            return []
        if self.fallback_reason is not None:
            return self._ensure_fallback().run_batch(requests)
        return self._recovery.run_batch(requests)

    def _run_round(self, requests: list[TestRequest]) -> list[TestReport]:
        """One fail-fast round: every chunk submitted once, or a raise.

        A broken pool, or a chunk still running after
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
        try:
            executor = self._ensure_executor()
            futures = [executor.submit(_worker_run_chunk, p) for p in packed]
            return [
                report
                for future in futures
                for report in pickle.loads(
                    future.result(timeout=self.dispatch_deadline)
                )
            ]
        except _FutureTimeout:
            self._replace_workers()
            raise TimeoutError(
                f"{self.name}: a chunk outlived the "
                f"{self.dispatch_deadline}s dispatch deadline"
            ) from None
        except BrokenExecutor:
            self._replace_workers()
            raise

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
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

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
