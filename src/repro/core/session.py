"""The exploration loop: AFEX's generate → execute → evaluate cycle.

This is the explorer of §6.1, and it exists once.
:class:`ExplorationLoop` asks the strategy for the next *generation* of
faults, answers from its golden store every fault that cannot fire (see
:class:`~repro.core.runner.GoldenStore`) and from its memo every fault
already run (see :class:`~repro.core.runner.ReportMemory`), executes
the rest, scores
each outcome with the impact metric (optionally weighted by an
environment model, §7.5), streams it through
the online quality stage, feeds the results back to the strategy,
checkpoints between rounds, and stops when the search target is met or
the strategy exhausts the space.  Runners, node managers and fleet
nodes only execute.  Every path records the same
:func:`~repro.core.runner.record` of each execution, so a campaign has
one history wherever it ran.  One step varies by explorer — *how the
rest of a generation is executed*:

* :class:`ExplorationSession` (here) maps a runner over it in-process;
* :class:`~repro.cluster.explorer_node.ClusterExplorer` ships it to a
  cluster fabric as one batch of requests.

``batch_size=1`` is the paper's single-process loop: one proposal, one
execution, one observation per iteration.  ``batch_size=k`` dispatches
``k`` speculative candidates per round — sound for every bundled
strategy (Algorithm 1 is stochastic beam search; see
:meth:`~repro.core.search.base.SearchStrategy.propose_batch`).

Loops are **resumable**: with ``checkpoint_path`` / ``checkpoint_every``
set, state is snapshotted between rounds (see
:mod:`repro.core.checkpoint`), and a loop constructed with
``resume_from`` replays the recorded history through the strategy
before going live, so a killed run continues byte-identically from its
last checkpoint.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from pathlib import Path

from repro.core.checkpoint import Checkpoint, CheckpointWriter, replay_history
from repro.core.faultspace import FaultSpace
from repro.core.fault import Fault
from repro.core.impact import ImpactMetric
from repro.core.results import ExecutedTest, ResultSet
from repro.core.runner import (
    GoldenStore, Record, ReportMemory, compile_scenario, golden_reach, record,
)
from repro.core.search.base import SearchStrategy
from repro.core.targets import SearchTarget
from repro.errors import CheckpointError, SearchError
from repro.quality.online import OnlineClusters, QualityDelta
from repro.quality.relevance import EnvironmentModel
from repro.sim.process import RunResult
from repro.util.rng import ensure_rng

__all__ = ["ExplorationLoop", "ExplorationSession"]

#: runner signature: fault -> run outcome.
Runner = Callable[[Fault], RunResult]

#: impact scores are small non-negative reals; these buckets resolve
#: the paper's 0-10 composite range (and a tail for weighted metrics).
FITNESS_BUCKETS: tuple[float, ...] = (
    0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 25.0, 50.0,
)


class ExplorationLoop:
    """Drives one strategy against one target until the goal is met.

    Subclasses supply :meth:`_run`, and nothing else of the loop.
    ``goldens`` (with the ``injector`` its plans are compiled by: the
    executors' own, or a memo of it) is the store the loop answers from
    and harvests into.  ``memory`` answers what the store cannot and
    remembers what ran; whoever gives it vouches that its records are
    of the executors' identity.  Without either everything runs.
    """

    def __init__(
        self,
        space: FaultSpace,
        metric: ImpactMetric,
        strategy: SearchStrategy,
        target: SearchTarget,
        rng: random.Random | int | None,
        batch_size: int,
        environment: EnvironmentModel | None = None,
        on_test: Callable[[ExecutedTest], None] | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 0,
        checkpoint_meta: dict[str, object] | None = None,
        resume_from: Checkpoint | None = None,
        metrics: "object | None" = None,
        tracer: "object | None" = None,
        online_quality: bool = False,
        cluster_distance: int = 1,
        similarity_threshold: float = 0.0,
        goldens: GoldenStore | None = None,
        injector: "object | None" = None,
        memory: ReportMemory | None = None,
    ) -> None:
        if not isinstance(batch_size, int) or batch_size < 1:
            raise SearchError(
                f"batch size must be a positive int, got {batch_size!r}"
            )
        self.space = space
        self.metric = metric
        self.strategy = strategy
        self.target = target
        self.rng = ensure_rng(rng)
        self.environment = environment
        self.on_test = on_test
        self.batch_size = batch_size
        self.resume_from = resume_from
        self.goldens = goldens
        self.injector = injector
        self.memory = memory
        #: scenarios this loop answered from ``memory``.
        self.remembered = 0
        #: optional :class:`~repro.obs.metrics.MetricsRegistry` — the
        #: loop reports per-round fitness, round latency, and proposal
        #: throughput into it.
        self.metrics = metrics
        #: optional :class:`~repro.obs.trace.Tracer` — every round
        #: emits round/propose/dispatch/verdict spans.
        self.tracer = tracer
        #: the streaming §5 quality stage: every executed result is
        #: assigned to a redundancy cluster as it arrives, and the
        #: per-result novelty flows into :meth:`SearchStrategy.observe`
        #: (strategies act on it only when opted in via ``use_novelty``,
        #: so the default trajectory is untouched).
        self.quality: OnlineClusters | None = (
            OnlineClusters(
                max_distance=cluster_distance,
                similarity_threshold=similarity_threshold,
            )
            if online_quality else None
        )
        #: per-round cluster movement (populated when online quality is
        #: on; campaigns and the CLI surface it as live non-redundancy).
        self.quality_deltas: list[QualityDelta] = []
        self._quality_prev: dict[str, object] | None = None
        if metrics is not None:
            if self.quality is not None:
                self.quality.bind_metrics(metrics)
            # Resolved once: series lookups are string formatting plus a
            # dict probe, which adds up on the per-test path the <5 %
            # overhead budget covers.
            self._tests_counter = metrics.counter("session.tests")
            self._golden_counter = metrics.counter("sim.golden_hits")
            self._remembered_counter = metrics.counter("sim.remembered_hits")
            self._fitness_hist = metrics.histogram(
                "session.fitness", boundaries=FITNESS_BUCKETS
            )
            self._rounds_counter = metrics.counter("session.rounds")
            self._round_hist = metrics.histogram("session.round_seconds")
            self._proposals_gauge = metrics.gauge("session.proposals_per_s")
        self.checkpointer = (
            CheckpointWriter(
                checkpoint_path, checkpoint_every, space, batch_size,
                meta=checkpoint_meta, meta_provider=self._checkpoint_meta,
                closing_meta=self._closing_meta,
            )
            if checkpoint_path is not None else None
        )
        self.executed: list[ExecutedTest] = []
        self._started = False
        self._round = 0

    def _execute(
        self, batch: list[Fault], dispatch: "object | None" = None
    ) -> list[Record]:
        """Execute one generation; records in proposal order.

        What the golden store proves cannot fire is answered from its
        test's golden run, what the memo holds from the memo, the rest
        goes to :meth:`_run` in one call; what ran is remembered with
        its reach, and what may stand golden of it (ran or remembered)
        harvested.  ``dispatch`` is the round's open dispatch span when
        a tracer is attached (its ids let remote executors nest their
        spans under it), None otherwise.
        """
        # Every scenario is accounted once, in order: ``first`` plus its
        # place in ``batch`` is its history index (answers leave gaps).
        first = len(self.executed)
        goldens, memory = self.goldens, self.memory
        if goldens is None and memory is None:
            ran = self._run(list(enumerate(batch, first)), dispatch)
            return [result for result, _ in ran]
        metrics, tracer = self.metrics, self.tracer
        records: list = [None] * len(batch)
        pending: list[tuple[int, Fault]] = []
        # Per pending fault: the test its result may stand golden for,
        # None when the plan compiled *here* has hooks.
        feeds: list[int | None] = []
        for index, fault in enumerate(batch, first):
            test = None
            if goldens is not None:
                test, plan = compile_scenario(self.injector, fault.as_dict())
                if getattr(plan, "hooks", ()):
                    test = None
                else:
                    held = goldens.answer(test, plan)
                    if held is not None:
                        records[index - first] = held
                        if metrics is not None:
                            self._golden_counter.inc()
                        if tracer is not None:
                            with tracer.span("golden_hit", test=test):
                                pass
                        continue
            if memory is not None:
                held = memory.answer(fault)
                if held is not None:
                    outcome, reach = held
                    records[index - first] = Record(
                        int(fault.value("test")), outcome)
                    if test is not None and reach is not None:
                        goldens.harvest(test, outcome, reach)
                    self.remembered += 1
                    if metrics is not None:
                        self._remembered_counter.inc()
                    if tracer is not None:
                        with tracer.span(
                                "remembered_hit", test=fault.get("test")):
                            pass
                    continue
            pending.append((index, fault))
            feeds.append(test)
        if pending:
            ran = self._run(pending, dispatch)
            for (index, fault), test, (result, reach) in zip(
                    pending, feeds, ran, strict=True):
                records[index - first] = result
                if memory is not None:
                    memory.remember(fault, result.outcome, reach)
                if test is not None and reach is not None:
                    goldens.harvest(test, result.outcome, reach)
        return records

    def _run(
        self, pending: list[tuple[int, Fault]], dispatch: "object | None"
    ) -> list[tuple[Record, "dict[str, int] | None"]]:
        """Execute ``(history index, fault)`` pairs, in order: each
        one's record and reach (see :func:`~repro.core.runner.golden_reach`)."""
        raise NotImplementedError

    def _checkpoint_meta(self) -> dict[str, object]:
        """What every checkpoint record carries because resume verifies
        it: the versioned cluster-state summary.  It lives in ``meta``,
        which the history digest does not cover — adding it cannot
        shift a resumed trajectory."""
        if self.quality is None:
            return {}
        return {"quality": self.quality.state_payload()}

    def _closing_meta(self) -> dict[str, object]:
        """What only the closing record carries: the metrics snapshot
        with the trace schema version (recorded next to the checkpoint
        schema version so a reader knows both formats).  Nothing reads
        it on resume and a snapshot runs every collector — on the
        service, a walk of the whole store — so periodic records leave
        it out; a live run's view is ``/v1/metrics``/``--metrics-out``."""
        if self.metrics is None:
            return {}
        from repro.obs.trace import TRACE_SCHEMA_VERSION

        return {
            "trace_schema": TRACE_SCHEMA_VERSION,
            "metrics": self.metrics.snapshot(),
        }

    def run(self) -> ResultSet:
        """Run the loop to completion and return the result set.

        Each round proposes up to ``batch_size`` candidates *before* any
        of their results are observed, executes the whole generation,
        then applies feedback in proposal order.  The stop criterion is
        consulted between rounds, so a run may overshoot its target by
        at most one batch — the §6.1 price of dispatch width (zero at
        ``batch_size=1``).
        """
        if self._started:
            raise SearchError(
                "a session cannot be run twice; create a new session "
                "(impact metrics and strategies carry per-session state)"
            )
        self._started = True
        self.strategy.bind(self.space, self.rng)
        if self.resume_from is not None:
            replay_history(
                self.resume_from, self.strategy, self.batch_size,
                self.space, self._account, rng=self.rng,
            )
            self._verify_quality_resume()
        # The un-instrumented round opens no spans and reads no clock:
        # instrumentation cost 13.7 % at batch 1 when this split was
        # made; `bench/run.py --traced` tracks it as
        # obs.instrumented_ratio.  A metered round (the service's: it
        # always binds metrics, never a tracer) reads the clock and
        # opens no spans.
        if self.tracer is not None:
            round_ = self._observed_round
        elif self.metrics is not None:
            round_ = self._metered_round
        else:
            round_ = self._fast_round
        try:
            while not self.target.done(self.executed):
                if not round_():
                    break  # space exhausted (or strategy gave up)
                if self.checkpointer is not None:
                    self.checkpointer.maybe_write(self.executed, self.rng)
            if self.checkpointer is not None:
                self.checkpointer.maybe_write(
                    self.executed, self.rng, force=True
                )
        finally:
            if self.checkpointer is not None:
                self.checkpointer.close()
        return ResultSet(self.executed)

    def _fast_round(self) -> int:
        """One un-instrumented round; returns its proposal count, 0 when
        the space is dry."""
        batch = self.strategy.propose_batch(self.batch_size)
        if not batch:
            return 0
        for fault, result in zip(batch, self._execute(batch), strict=True):
            self._account(fault, result)
        self._publish_quality_delta()
        return len(batch)

    def _metered_round(self) -> int:
        """One round with metrics and no tracer: the ``session.*``
        series of :meth:`_observed_round`, no span."""
        clock = self.metrics.clock
        started = clock()
        proposals = self._fast_round()
        if proposals:
            self._observe_round(clock() - started, proposals)
        return proposals

    def _observed_round(self) -> int:
        """One traced round; returns its proposal count, 0 when the
        space is dry."""
        tracer = self.tracer
        clock = self.metrics.clock if self.metrics is not None else None
        started = clock() if clock is not None else 0.0
        self._round += 1
        with tracer.span("round", round=self._round,
                         batch_size=self.batch_size):
            with tracer.span("propose"):
                batch = self.strategy.propose_batch(self.batch_size)
            if not batch:
                return 0
            with tracer.span("dispatch", requests=len(batch)) as dispatch:
                records = self._execute(batch, dispatch)
            for fault, result in zip(batch, records, strict=True):
                test = self._account(fault, result)
                with tracer.span("verdict", index=test.index) as span:
                    span.set(impact=test.impact, failed=test.result.failed)
            if self.quality is not None:
                with tracer.span("quality") as span:
                    span.set(**self._publish_quality_delta().as_dict())
        if clock is not None:
            self._observe_round(clock() - started, len(batch))
        return len(batch)

    def _observe_round(self, elapsed: float, proposals: int) -> None:
        self._rounds_counter.inc()
        self._round_hist.observe(elapsed)
        if elapsed > 0:
            self._proposals_gauge.set(proposals / elapsed)

    def _account(self, fault: Fault, result: Record) -> ExecutedTest:
        """Score, feed back, and record one result (live or replayed).

        Checkpoint replay drives this path too, so a resumed loop
        rebuilds its cluster engine in exactly the recorded state.
        """
        impact = self.metric.score(result)
        if self.environment is not None:
            impact = self.environment.weight_impact(fault, impact)
        if self.metrics is not None:
            self._tests_counter.inc()
            self._fitness_hist.observe(impact)
        if self.quality is not None:
            update = self.quality.add(result.injection_stack)
            self.strategy.observe(fault, impact, result,
                                  novelty=update.novelty)
        else:
            self.strategy.observe(fault, impact, result)
        executed = ExecutedTest(
            index=len(self.executed),
            fault=fault,
            result=result,
            impact=impact,
            fitness=impact,
        )
        self.executed.append(executed)
        if self.on_test is not None:
            self.on_test(executed)
        return executed

    def _publish_quality_delta(self) -> QualityDelta | None:
        """Record the round's cluster movement (online quality only)."""
        if self.quality is None:
            return None
        delta = self.quality.delta(
            len(self.quality_deltas) + 1, self._quality_prev
        )
        self._quality_prev = self.quality.stats()
        self.quality_deltas.append(delta)
        return delta

    def _verify_quality_resume(self) -> None:
        """Cross-check the replay-rebuilt cluster state against what the
        checkpoint recorded (replay re-feeds every recorded result
        through :meth:`_account`, so the engine must land exactly where
        it was)."""
        if self.quality is None or self.resume_from is None:
            return
        persisted = self.resume_from.meta.get("quality")
        if not isinstance(persisted, dict):
            return  # checkpoint predates online quality (or it was off)
        try:
            self.quality.verify_state(persisted)
        except ValueError as exc:
            raise CheckpointError(str(exc)) from None


class ExplorationSession(ExplorationLoop):
    """The in-process loop: a runner mapped over each generation.

    The history records the :func:`~repro.core.runner.record` of each
    result the runner returns; reach comes from the full result.  Plans are compiled by
    ``runner.injector`` (a :class:`~repro.core.runner.TargetRunner`'s
    plan memo); without ``goldens`` such a session answers from a fresh
    store, and a bare callable answers nothing.  Everything past
    ``batch_size`` is keyword-only and documented on
    :class:`ExplorationLoop`.
    """

    def __init__(
        self,
        runner: Runner,
        space: FaultSpace,
        metric: ImpactMetric,
        strategy: SearchStrategy,
        target: SearchTarget,
        rng: random.Random | int | None = None,
        environment: EnvironmentModel | None = None,
        on_test: Callable[[ExecutedTest], None] | None = None,
        batch_size: int = 1,
        *,
        goldens: GoldenStore | None = None,
        **options: object,
    ) -> None:
        injector = getattr(runner, "injector", None)
        if injector is None:
            if goldens is not None:
                raise SearchError("a golden store needs the runner's injector")
        elif goldens is None:
            goldens = GoldenStore()
        super().__init__(
            space, metric, strategy, target, rng, batch_size,
            environment, on_test, goldens=goldens, injector=injector,
            **options,  # type: ignore[arg-type]
        )
        self.runner = runner

    def _run(
        self, pending: list[tuple[int, Fault]], dispatch: "object | None"
    ) -> list[tuple[Record, "dict[str, int] | None"]]:
        runner = self.runner
        return [
            (record(result), golden_reach(result))
            for result in (runner(fault) for _, fault in pending)
        ]
