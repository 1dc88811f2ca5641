"""The reusable campaign engine: one fabric, many campaigns.

Every campaign the product runs is a
:class:`~repro.service.spec.CampaignSpec` executed here — ``afex run``,
``afex report`` and every job ``afex serve`` schedules — and the
engine is gated on **byte-identical campaign digests**: an
engine-driven run reproduces the exact
:func:`~repro.core.checkpoint.history_digest` of the plain
:class:`~repro.core.session.ExplorationSession` loop on ``serial`` and
of the bare :class:`~repro.cluster.ClusterExplorer` on every fabric.

The engine owns what a one-shot run used to rebuild on every call:

* **fabric lifecycle** — the thread/virtual node managers, the warm
  process pool, or the networked socket fabric are built once on first
  use and *reused* across campaigns (``warm_reuses`` counts how often
  the setup cost was skipped).  Teardown is explicit via
  :meth:`CampaignEngine.close`;
* **what its runs already answered** — one golden store and one memo
  per engine on every fabric, which the exploration loop answers from:
  a warm engine executes no scenario that cannot fire, and none it has
  already run (the memo may be given, and shared with other engines of
  the same runner identity);
* **checkpointing** — per-campaign snapshot/resume threading;
* **online quality** — the streaming §5 clustering stage;
* **observability** — one metrics registry / tracer pair threaded
  through every layer.

This is what makes a long-running campaign *service* viable: the
per-campaign cost collapses to proposing and executing tests (ZOFI's
near-zero orchestration overhead, PAPERS.md), instead of re-paying
process startup, fabric bring-up, and memo warm-up per submission.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.core.checkpoint import Checkpoint, load_checkpoint
from repro.core.faultspace import FaultSpace
from repro.core.impact import standard_impact
from repro.core.results import ResultSet
from repro.core.runner import GoldenStore, ReportMemory, TargetRunner
from repro.core.search.base import SearchStrategy
from repro.core.session import ExplorationSession
from repro.core.targets import IterationBudget, SearchTarget
from repro.errors import ClusterError
from repro.sim.testsuite import Target

__all__ = ["CampaignEngine", "EngineRun", "FABRICS"]

#: the selectable execution fabrics ("auto" = serial unless workers > 1).
FABRICS = ("auto", "serial", "threads", "processes", "virtual", "socket")


@dataclass
class EngineRun:
    """What one engine-driven campaign produced."""

    results: ResultSet
    #: a runner suitable for re-execution (precision trials, reports).
    runner: TargetRunner
    #: the resolved fabric the campaign actually ran on.
    fabric: str
    seconds: float
    #: the fabric's fault-tolerance record (None on serial runs).  With
    #: a warm fabric the counters are cumulative across the engine's
    #: campaigns, exactly like a long-lived cluster's would be.
    health: object | None = None
    #: the online clustering stage's counters (an
    #: ``OnlineClusters.stats()`` dict; None unless the campaign ran
    #: with online quality on).
    quality_stats: dict | None = None
    #: ``{"goldens", "hits"}``, lifetime totals of the engine's golden
    #: store — one number per history, whichever fabric ran it.
    golden_stats: dict | None = None
    #: this campaign's scenarios answered from the engine's memo — what
    #: an earlier campaign (or a warming file) had run — instead of
    #: executed.
    remembered: int = 0

    @property
    def digest(self) -> str:
        """Stable content digest of the campaign's result history."""
        return self.results.digest


class CampaignEngine:
    """Runs exploration campaigns on one owned, reusable fabric.

    Construction is cheap and lazy: nothing is built until the first
    :meth:`explore`.  Subsequent campaigns on the same engine reuse the
    warm fabric — the same node managers, worker processes, or
    registered socket nodes — its golden store and its memo: a given
    ``memory`` (whose giver vouches it holds records of this engine's
    runner identity) or, without one, the engine's own, which
    :meth:`close` drops.  Call :meth:`close` when done; an engine is
    also a context manager.

    Thread-safety: one engine runs one campaign at a time (the service
    layer pools engines and never shares a busy one).
    """

    def __init__(
        self,
        target: Target,
        *,
        fabric: str = "serial",
        workers: int = 1,
        name: str = "engine",
        #: builds the fault injector: one instance for the in-process
        #: runner and the thread/virtual node managers, one per worker on
        #: the process pool (None: the ``errno`` model's).
        injector_factory: Callable[[], object] | None = None,
        target_factory: Callable[[], Target] | None = None,
        memory: ReportMemory | None = None,
        metrics: object | None = None,
        tracer: object | None = None,
        dispatch_deadline: float | None = None,
        # -- socket-fabric knobs ------------------------------------------------
        listen: str = "127.0.0.1:0",
        node_wait: float = 60.0,
        #: how many registrations to wait for before the first campaign
        #: (None = all ``workers``); the rest may join mid-campaign.
        wait_count: int | None = None,
        #: None keeps the fabric's own default (open fleet).
        allow_join: bool | None = None,
        #: called with the live SocketFabric right after it binds and
        #: before the engine waits for nodes — learn the bound port and
        #: launch ``afex node`` processes here.
        on_fabric: Callable[[object], None] | None = None,
        #: called with the registered node count once the fleet is up.
        on_nodes: Callable[[int], None] | None = None,
    ) -> None:
        if fabric not in FABRICS:
            raise ClusterError(
                f"unknown fabric {fabric!r}; available: {FABRICS}"
            )
        if dispatch_deadline is not None and fabric != "processes":
            raise ClusterError(
                "a dispatch deadline needs the processes fabric, the only "
                f"one that can replace a hung worker (got {fabric!r})"
            )
        self.target = target
        self.fabric = fabric
        self.workers = max(int(workers), 1)
        self.name = name
        self.injector_factory = injector_factory
        self.target_factory = target_factory
        self.memory = memory
        self.metrics = metrics
        self.tracer = tracer
        self.dispatch_deadline = dispatch_deadline
        self.listen = listen
        self.node_wait = node_wait
        self.wait_count = wait_count
        self.allow_join = allow_join
        self.on_fabric = on_fabric
        self.on_nodes = on_nodes
        #: campaigns completed by this engine.
        self.runs = 0
        #: campaigns that skipped fabric bring-up because it was warm.
        self.warm_reuses = 0
        self._runner: TargetRunner | None = None
        self._managers: list = []  # thread/virtual fabrics' node managers
        self._cluster: object | None = None  # the explorer-facing fabric
        #: what the loop answers from, built with ``_runner`` (the memo
        #: is ``memory`` when given).
        self._goldens: GoldenStore | None = None
        self._memory: ReportMemory | None = None
        self._pool: object | None = None
        self._net: object | None = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def resolved_fabric(self) -> str:
        """The concrete fabric ``auto`` resolves to for this engine."""
        if self.fabric == "auto":
            return "serial" if self.workers <= 1 else "threads"
        return self.fabric

    @property
    def warm(self) -> bool:
        """True once the fabric has been built and not yet closed."""
        if self.resolved_fabric == "serial":
            return self._runner is not None
        return self._cluster is not None

    def close(self) -> None:
        """Tear the fabric down (idempotent).

        The engine may be used again afterwards — the next campaign
        pays the bring-up cost once more.
        """
        pool, net = self._pool, self._net
        self._runner = self._goldens = self._memory = None
        self._managers = []
        self._cluster = None
        self._pool = None
        self._net = None
        if pool is not None:
            pool.close()
        if net is not None:
            net.close()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- fabric construction ---------------------------------------------------

    def _target_runner(self) -> TargetRunner:
        """The engine's in-process runner: what serial campaigns execute
        on, and what every campaign hands out for report re-execution;
        built with the engine's golden store and memo.  Its plan memo is
        what the loop and the thread/virtual managers compile through."""
        if self._runner is None:
            factory = self.injector_factory
            self._goldens = GoldenStore()
            self._memory = self.memory
            if self._memory is None:
                self._memory = ReportMemory()
                if self.metrics is not None:
                    self._memory.bind_metrics(self.metrics)
            self._runner = TargetRunner(
                self.target, factory and factory(),
                metrics=self.metrics, tracer=self.tracer,
            )
        return self._runner

    @property
    def identity(self) -> str:
        """``target/version/injector`` of what this engine runs: what
        its memo's records are records *of*."""
        return self._target_runner().identity

    def _ensure_cluster(self) -> object:
        """Build (or reuse) the parallel fabric for this engine."""
        if self._cluster is not None:
            self.warm_reuses += 1
            return self._cluster

        from repro.cluster import (
            FaultTolerantFabric,
            LocalCluster,
            NodeManager,
            ProcessPoolCluster,
            SocketFabric,
            VirtualCluster,
        )

        fabric = self.resolved_fabric
        if fabric == "socket":
            kwargs: dict = {"identity": self._target_runner().identity}
            if self.allow_join is not None:
                kwargs["allow_join"] = self.allow_join
            net = SocketFabric(
                self.listen, expected_nodes=self.workers, **kwargs
            )
            try:
                if self.on_fabric is not None:
                    self.on_fabric(net)
                registered = net.wait_for_nodes(
                    count=self.wait_count, timeout=self.node_wait
                )
                if self.on_nodes is not None:
                    self.on_nodes(registered)
            except BaseException:
                net.close()
                raise
            self._net = net
            self._cluster = FaultTolerantFabric(net)
        elif fabric == "processes":
            # The pool runs on its own retry loop and enforces the
            # deadline itself, so it is not wrapped again.  Without a
            # picklable factory it degrades to in-process execution.
            factory = self.target_factory or (lambda: self.target)
            self._pool = ProcessPoolCluster(
                factory,
                workers=self.workers,
                name=self.name,
                dispatch_deadline=self.dispatch_deadline,
                injector_factory=self.injector_factory,
                identity=self._target_runner().identity,
            )
            self._cluster = self._pool
        else:
            self.target.suite  # pre-build once; managers then share it safely
            managers = self._managers = [
                NodeManager(
                    f"node{i}", self.target,
                    injector=self._target_runner().injector,
                    metrics=self.metrics,
                )
                for i in range(self.workers)
            ]
            inner = (LocalCluster(managers) if fabric == "threads"
                     else VirtualCluster(managers))
            self._cluster = FaultTolerantFabric(inner)
        return self._cluster

    # -- campaigns -------------------------------------------------------------

    def explore(
        self,
        space: FaultSpace,
        strategy: SearchStrategy,
        *,
        iterations: int = 250,
        stop: SearchTarget | None = None,
        seed: int = 0,
        batch_size: int | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 0,
        checkpoint_meta: dict[str, object] | None = None,
        resume_from: Checkpoint | str | Path | None = None,
        online_quality: bool = False,
        cluster_distance: int = 1,
        similarity_threshold: float = 0.0,
        on_test: Callable[[object], None] | None = None,
    ) -> EngineRun:
        """Run one campaign on the (possibly warm) fabric.

        The trajectory is a pure function of ``(space, strategy, seed,
        batch size)`` — every fabric records the same history, and warm
        reuse shares processes and sockets, never search state, so
        repeated identical campaigns produce byte-identical digests and
        a journal resumes on any fabric.
        """
        fabric = self.resolved_fabric
        if isinstance(resume_from, (str, Path)):
            resume_from = load_checkpoint(resume_from)
        campaign = (
            space, standard_impact(), strategy,
            stop or IterationBudget(iterations),
        )
        options = dict(
            rng=seed,
            on_test=on_test,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            checkpoint_meta=checkpoint_meta,
            resume_from=resume_from,
            metrics=self.metrics,
            tracer=self.tracer,
            online_quality=online_quality,
            cluster_distance=cluster_distance,
            similarity_threshold=similarity_threshold,
        )
        started = time.perf_counter()
        warm = self._runner is not None
        runner = self._target_runner()
        # What a journal must say for ``afex run --cache`` to warm a
        # memo from it (meta is outside the history digest).
        options["checkpoint_meta"] = {
            **(checkpoint_meta or {}), "identity": runner.identity}
        if fabric == "serial":
            self.warm_reuses += warm
            explorer = ExplorationSession(
                runner, *campaign,
                batch_size=1 if batch_size is None else batch_size,
                goldens=self._goldens, memory=self._memory, **options,
            )
        else:
            from repro.cluster import ClusterExplorer

            explorer = ClusterExplorer(
                self._ensure_cluster(), *campaign,
                batch_size=batch_size, goldens=self._goldens,
                injector=runner.injector, memory=self._memory, **options,
            )
        results = explorer.run()
        self.runs += 1
        return EngineRun(
            results=results,
            runner=runner,
            fabric=fabric,
            seconds=time.perf_counter() - started,
            health=explorer.health if fabric != "serial" else None,
            quality_stats=(
                explorer.quality.stats()
                if explorer.quality is not None else None
            ),
            golden_stats=self._goldens.stats(),
            remembered=explorer.remembered,
        )
