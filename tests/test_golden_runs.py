"""The golden-run short-circuit is an identity, proven by execution.

A ``GoldenStore`` answers a scenario from the fault-free ("golden") run
of its test when no fault of the plan can fire.  It has one holder, the
exploration loop — an ``ExplorationSession`` (its own store, or the
engine's) or a ``ClusterExplorer`` (the engine's), which then never
ships the scenario; runners and node managers only execute.  These
tests execute for real what the loop would not:

* differential, both directions, at both explorers — every scenario a
  session or a cluster explorer answers ``==`` a cold ``run_test`` of
  it (``injected=False``) field by field and encodes to the same
  checkpoint payload, and everything either executes fires or carries a
  hook.  Exhaustive over the errno space (``max_call=3``) of coreutils,
  httpd, docstore 0.8/2.0 and replkv; a seeded sample of MiniDB's
  ``max_call=10`` space here, all ~240k points when
  ``AFEX_GOLDEN_EXHAUSTIVE`` is set (the CI ``faultmodel-smoke`` step).
  At the cluster seam every scenario a warm explorer does not ship —
  answered from a golden run or from its memo — is executed by a cold
  ``NodeManager`` and must be the same report;
* the reach rule counts only calls made while the plan is armed;
* synthesised results alias no mutable state, and never reach the
  runner or the loop's memo; a record warmed into the memo from a
  journal never feeds the golden store;
* a warm store moves no digest: the same campaign twice on one engine,
  a checkpoint-resumed run over warm goldens, and (a property) an
  explorer or a session with the store against one without, at every
  batch size;
* ``golden_stats`` is one number whichever fabric ran the history;
* the ``sim.golden_hits`` counter and the ``golden_hit`` span have one
  emitter, the loop, and the ``session.tests`` accounting identity;
* the engine's memo (``ReportMemory``), above threads, processes and
  socket fleets: a remembered answer is a cold execution (hooked plans
  included), proposals = golden answers + remembered answers + shipped,
  a warm engine moves no digest (a property), and the memo's bound,
  sharing and cost per entry.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import pickle
import random
import struct
import tempfile
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    ChaosCluster, ClusterExplorer, ExplorerNode, FaultTolerantFabric,
    LocalCluster, NodeManager, ProcessPoolCluster, RetryPolicy, SocketFabric,
)
from repro.cluster.messages import TestReport, TestRequest
from repro.core import (
    ExplorationSession, FaultSpace, FitnessGuidedSearch, TargetRunner,
    standard_impact,
)
from repro.core.runner import (
    NO_PLAN, OUTCOME_FIELDS, GoldenStore, Outcome, Record, ReportMemory,
    compile_scenario, record,
)
from repro.core.targets import IterationBudget
from repro.core.cache import DEFAULT_CAPACITY, ResultCache, result_to_payload
from repro.core.checkpoint import load_checkpoint
from repro.core.fault import Fault
from repro.errors import ClusterError, SearchError
from repro.injection.models import model_injector, model_space
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.service.engine import CampaignEngine
from repro.sim.process import RunResult, run_test
from repro.sim.targets import target_by_name
from repro.sim import testsuite

#: tier-1 samples MiniDB's space; CI walks all of it (see module docstring).
MINIDB_SAMPLE = None if os.environ.get("AFEX_GOLDEN_EXHAUSTIVE") else 5000


def payload_text(result) -> str:
    return json.dumps(result_to_payload(result), sort_keys=True)


def recorded(result):
    """What a history records of the full result ``result``."""
    return record(result)


class ExplorerSeam:
    """A warm explorer-level store and report memory, checked scenario
    by scenario.

    The explorer runs over a one-manager fabric that notes what it is
    sent.  That manager executes everything cold: on a fresh runner, or
    — ``real`` — by reporting the ``RunResult`` of a cold ``run_test``
    the caller has already paid for.  Given an ``engine``, the explorer
    asks the engine's warm stores instead and ships to its fleet.
    """

    def __init__(self, target, model: str = "errno", engine=None) -> None:
        self.injector = injector = model_injector(model)
        self.manager = NodeManager("cold", target, injector)
        self.manager._runner = lambda fault: (
            self.real or TargetRunner(target, injector)(fault))
        self.real = None
        if engine is None:
            self.fleet = None
            stores = dict(goldens=GoldenStore(), injector=injector,
                          memory=ReportMemory())
        else:
            self.fleet = engine._ensure_cluster()
            stores = dict(goldens=engine._goldens,
                          injector=engine._target_runner().injector,
                          memory=engine._memory)
        self.explorer = ClusterExplorer(
            self, model_space(target, model, max_call=1),
            standard_impact(), FitnessGuidedSearch(), IterationBudget(1),
            **stores,
        )
        self.answered = self.remembered = self.shipped = self.sent = 0
        #: remembered answers whose fault fired / whose plan has hooks.
        self.remembered_fired = self.remembered_hooked = 0
        #: the cold report of each test's empty plan, made once.
        self._fault_free: dict = {}

    def __len__(self) -> int:
        return 1

    def run_batch(self, requests):
        self.sent += len(requests)
        if self.fleet is not None:
            return self.fleet.run_batch(requests)
        return [self.manager.execute(request) for request in requests]

    def check(self, fault: Fault, real=None) -> None:
        """Answered or remembered => equal to a cold execution;
        shipped => it fires or has hooks."""
        self.real, sent = real, self.sent
        remembered = self.explorer.memory.hits
        result, = self.explorer._execute([fault])
        attributes = fault.as_dict()
        test = attributes.pop("test")
        plan = self.injector.plan_for(attributes)
        if self.sent > sent:
            self.shipped += 1
            assert result.injected or plan.hooks, fault
            return
        if self.explorer.memory.hits > remembered:
            # Whether or not its fault fired, and hooks or not: the
            # remembered view is what executing it again returns.
            self.remembered += 1
            self.remembered_fired += result.injected
            self.remembered_hooked += bool(plan.hooks)
            cold = self.manager.execute(
                TestRequest(0, fault.subspace, fault.as_dict()))
        else:
            self.answered += 1
            assert not plan.hooks, fault
            cold = None if plan.faults else self._fault_free.get(test)
            if cold is None:
                cold = self.manager.execute(
                    TestRequest(0, fault.subspace, fault.as_dict()))
                if not plan.faults:
                    self._fault_free[test] = cold
            assert not cold.result.injected, fault
        # What the explorer records of a report is the report's record,
        # its outcome the one object a cold execution interns.
        assert result == cold.result, fault


def bare_session(runner) -> ExplorationSession:
    """A session over ``runner``, asked one generation at a time through
    ``_execute``; it answers from a store of its own when ``runner`` has
    an injector."""
    return ExplorationSession(
        runner, FaultSpace.product(test=[1]), standard_impact(),
        FitnessGuidedSearch(), IterationBudget(1),
    )


def one(session, fault: Fault):
    """The result ``session`` records for ``fault``."""
    result, = session._execute([fault])
    return result


def differential(target, faults) -> tuple[int, int, int]:
    """Check every fault both ways, at a session and at the explorer
    seam; returns (short-circuited, executed, remembered at the seam)."""
    session = bare_session(TargetRunner(target))
    goldens = session.goldens
    seam = ExplorerSeam(target)
    function = target.libc_functions()[0]
    fault_free_points = [  # the explicit no-fault point: one golden each
        Fault.of(test=test.id, function=function, call=0)
        for test in target.suite
    ]
    session._execute(fault_free_points)
    seam.explorer._execute(fault_free_points)
    held = {"goldens": len(target.suite), "hits": 0}
    assert goldens.stats() == seam.explorer.goldens.stats() == held
    executed = 0
    distinct: set = set()   # the executed faults, each counted once
    # Every function's ``call=0`` point of a test compiles to the same
    # empty plan: the same input to ``run_test``, executed once.
    fault_free: dict = {}
    for fault in faults:
        hits = goldens.hits
        result = one(session, fault)
        if goldens.hits == hits:
            # The rule said reachable, so the runner ran it: it must fire.
            assert result.injected, fault
            executed += 1
            distinct.add(fault)
            seam.check(fault, result)
            continue
        attributes = fault.as_dict()
        test = target.suite[attributes.pop("test")]
        plan = session.injector.plan_for(attributes)
        real = None if plan.faults else fault_free.get(test.id)
        if real is None:
            real = run_test(target, test, plan)
            if not plan.faults:
                fault_free[test.id] = real
        assert not real.injected, fault
        assert result == recorded(real), fault
        assert payload_text(result) == payload_text(recorded(real)), fault
        seam.check(fault, real)
    # Both explorers apply one rule to one profile; the session executes
    # a repeat again, the seam remembers it and ships each fault once.
    assert (seam.answered, seam.shipped, seam.remembered) \
        == (goldens.hits, len(distinct), executed - len(distinct))
    assert seam.remembered_fired == seam.remembered
    return goldens.hits, executed, seam.remembered


class TestDifferential:
    @pytest.mark.parametrize("name", [
        "coreutils", "httpd", "docstore-0.8", "docstore-2.0", "replkv",
    ])
    def test_every_point_of_the_errno_space(self, name):
        target = target_by_name(name)
        space = model_space(target, "errno", max_call=3)
        short, executed, remembered = differential(target, space.enumerate())
        assert short + executed == space.size()
        assert short > 0 and executed > 0
        assert remembered == 0      # an enumeration repeats no point

    def test_minidb_errno_space(self, minidb):
        space = model_space(minidb, "errno", max_call=10)
        if MINIDB_SAMPLE is None:
            faults, count = space.enumerate(), space.size()
        else:
            rng = random.Random(19)
            faults = [space.random_fault(rng) for _ in range(MINIDB_SAMPLE)]
            count = MINIDB_SAMPLE
        short, executed, remembered = differential(minidb, faults)
        assert short + executed == count
        assert short > 0 and executed > 0
        # A sample of 5 000 repeats some reachable points; all of them
        # are remembered, and an enumeration repeats none.
        assert (remembered > 0) == (MINIDB_SAMPLE is not None)

    def test_composed_plans_are_never_answered(self, replkv):
        """``errno+disk``: a plan with a disk hook always ships, however
        unreachable its errno part; the hook-free rest is answered."""
        seam = ExplorerSeam(replkv, "errno+disk")
        space = model_space(replkv, "errno+disk", max_call=2)
        rng = random.Random(23)
        faults = [space.random_fault(rng) for _ in range(600)]
        seam.explorer._execute([
            Fault.of(test=test.id, function="malloc", call=0,
                     disk_write=0, disk_mode="torn")
            for test in replkv.suite
        ])
        for fault in faults:
            seam.check(fault)       # asserts: answered => no hooks
        hooked = sum(
            bool(seam.injector.plan_for(
                {k: v for k, v in f.as_dict().items() if k != "test"}).hooks)
            for f in faults
        )
        assert hooked > 0 and seam.answered > 0
        assert seam.shipped >= hooked


class SetupCallsLibc(testsuite.Target):
    """Throw-away target whose ``setup`` makes two ``malloc`` calls."""

    name = "setup-calls-libc"

    def build_suite(self) -> testsuite.TestSuite:
        def body(env) -> None:
            if env.libc.malloc(8) == 0:
                env.exit(1)

        return testsuite.TestSuite(
            [testsuite.TestCase(1, "one-malloc", "g", body)])

    def setup(self, env, test) -> None:
        env.libc.malloc(8)
        env.libc.malloc(8)

    def libc_functions(self) -> tuple[str, ...]:
        return ("malloc",)


class TestReachCountsOnlyArmedCalls:
    def test_set_up_calls_are_not_reach(self):
        target = SetupCallsLibc()
        test = target.suite[1]
        session = bare_session(TargetRunner(target))

        def both(call):
            fault = Fault.of(test=1, function="malloc", call=call)
            plan = session.injector.plan_for(
                {"function": "malloc", "call": call})
            return one(session, fault), run_test(target, test, plan)

        assert both(0)[1].call_counts == {"malloc": 3}
        # malloc#1 and #2 happened in setup, before the plan was armed:
        # unreachable, although the golden total (3) says otherwise.
        for call in (1, 2, 1):
            via_session, real = both(call)
            assert not real.injected and via_session == recorded(real)
        via_session, real = both(3)
        assert real.injected and real.exit_code == 1
        assert via_session == recorded(real)
        # Such totals overstate reach, so this target never gets a golden.
        assert session.goldens.stats() == {"goldens": 0, "hits": 0}


def unreachable_fault(test_id: int = 1) -> Fault:
    # No coreutils test calls malloc 9 times.
    return Fault.of(test=test_id, function="malloc", call=9)


class TestSynthesisedResults:
    def test_a_golden_answer_is_the_held_record(self, coreutils):
        """A record carries no plan, so the golden's record is what
        executing the unreachable scenario records: it is answered as
        is, never copied."""
        session = bare_session(TargetRunner(coreutils))
        first = one(session, Fault.of(test=1, function="malloc", call=0))
        second = one(session, unreachable_fault())
        third = one(session, unreachable_fault())
        assert session.goldens.stats() == {"goldens": 1, "hits": 2}
        assert second is third and second == first
        assert second.outcome is first.outcome
        assert first == recorded(run_test(coreutils, coreutils.suite[1]))

    def test_golden_answers_never_reach_the_runner_cache(self, coreutils):
        """Nor the loop's memo, which asks after the golden store."""
        metrics, memory = MetricsRegistry(), ReportMemory()
        session = ExplorationSession(
            TargetRunner(coreutils, metrics=metrics),
            FaultSpace.product(test=[1]), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(1), memory=memory)
        executed = one(session, Fault.of(test=1, function="malloc", call=0))
        synthesised = one(session, unreachable_fault())
        assert one(session, unreachable_fault()) == synthesised
        assert session.goldens.stats()["hits"] == 2
        # The runner and the memo saw the executed scenario alone.
        assert metrics.counters()["runner.tests"] == 1
        assert memory.stats() == {
            "entries": 1, "bodies": 1, "hits": 0, "misses": 1,
            "evictions": 0}
        unreachable = unreachable_fault()
        assert (unreachable.subspace, *chain(*unreachable.attributes)) \
            not in memory._entries
        assert synthesised.coverage == executed.coverage

    def test_hook_plans_and_provenance_runners_always_execute(self, replkv):
        composed = bare_session(
            TargetRunner(replkv, model_injector("errno+disk")))
        no_fault = dict(test=1, function="malloc", call=0, disk_mode="torn")
        one(composed, Fault.of(disk_write=0, **no_fault))   # hook-free: golden
        assert composed.goldens.stats() == {"goldens": 1, "hits": 0}
        one(composed, Fault.of(disk_write=6, **no_fault))   # a disk hook
        assert composed.goldens.stats()["hits"] == 0
        one(composed, Fault.of(disk_write=0, **no_fault))
        assert composed.goldens.stats()["hits"] == 1

        # A provenance result never stands golden: nothing is answered.
        replaying = bare_session(TargetRunner(replkv, provenance=True))
        for _ in range(2):
            result = one(replaying, Fault.of(test=1, function="malloc", call=0))
            assert result.provenance
        assert replaying.goldens.stats() == {"goldens": 0, "hits": 0}

    def test_a_bare_callable_runner_answers_nothing(self, coreutils):
        runner = TargetRunner(coreutils)
        session = bare_session(runner)
        plain = ExplorationSession(
            lambda fault: runner(fault), session.space, standard_impact(),
            FitnessGuidedSearch(), IterationBudget(1))
        assert session.injector is runner.injector
        assert plain.goldens is None and plain.injector is None

    def test_a_golden_store_needs_the_runners_injector(self, coreutils):
        with pytest.raises(SearchError, match="injector"):
            ExplorationSession(
                lambda fault: None, FaultSpace.product(test=[1]),
                standard_impact(), FitnessGuidedSearch(), IterationBudget(1),
                goldens=GoldenStore(),
            )

    def test_a_session_compiles_each_point_once(self, coreutils):
        """The loop compiles a scenario before the runner executes it;
        both go through the runner's plan memo, so the model compiles
        each distinct point once."""
        compiled = []
        injector = model_injector("errno")
        inner_plan_for = injector.plan_for
        injector.plan_for = lambda attributes: (
            compiled.append(tuple(attributes.items()))
            or inner_plan_for(attributes))
        session = ExplorationSession(
            TargetRunner(coreutils, injector),
            model_space(coreutils, "errno", max_call=2), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(80), rng=5,
        )
        results = session.run()
        executed = len(results) - session.goldens.stats()["hits"]
        points = {tuple((k, v) for k, v in test.fault.as_dict().items()
                        if k != "test") for test in results}
        assert executed > 0
        assert sorted(compiled) == sorted(points)


@functools.lru_cache(maxsize=None)
def cold_digest(fabric: str) -> str:
    return campaign(fresh_engine(fabric)).digest


def fresh_engine(fabric: str, target: str = "coreutils",
                 model: str = "errno", **kwargs) -> CampaignEngine:
    factory = functools.partial(target_by_name, target)
    injectors = functools.partial(model_injector, model)

    def launch(net):  # the socket fabric's fleet: two in-thread nodes
        for i in range(2):
            ExplorerNode(
                (net.host, net.port), factory, name=f"golden{i}", capacity=2,
                injector_factory=injectors,
            ).run_in_thread()       # shut down by engine.close()

    return CampaignEngine(
        factory(), fabric=fabric, workers=2, target_factory=factory,
        injector_factory=injectors, on_fabric=launch, **kwargs,
    )


def campaign(engine: CampaignEngine, model: str = "errno", seed: int = 7,
             **kwargs):
    space = model_space(engine.target, model, max_call=10)
    return engine.explore(
        space, FitnessGuidedSearch(), iterations=96, seed=seed, batch_size=8,
        **kwargs,
    )


class TestDigestsWithWarmGoldens:
    @pytest.mark.parametrize("fabric", ["serial", "threads", "processes"])
    def test_same_campaign_twice_on_one_warm_engine(self, fabric):
        with fresh_engine(fabric) as engine:
            first, second = campaign(engine), campaign(engine)
        assert first.digest == second.digest == cold_digest(fabric)
        assert second.golden_stats["hits"] > first.golden_stats["hits"] > 0
        assert second.golden_stats["goldens"] > 0

    def test_golden_stats_are_one_number_on_every_fabric(self):
        """Store-lifetime totals are a pure function of the history."""
        stats = []
        for fabric in ("threads", "processes", "socket"):
            with fresh_engine(fabric) as engine:
                first, second = campaign(engine), campaign(engine)
            assert first.digest == cold_digest("threads")
            stats.append((first.golden_stats, second.golden_stats))
        assert stats[0] == stats[1] == stats[2]
        assert stats[0][1]["hits"] > stats[0][0]["hits"] > 0

    def test_close_drops_the_engine_store(self):
        engine = fresh_engine("threads")
        first = campaign(engine)
        engine.close()
        with engine:
            assert campaign(engine).golden_stats == first.golden_stats

    def test_a_warmed_record_never_feeds_the_golden_store(
            self, replkv, tmp_path):
        """A record warmed from a journal carries no call counts and its
        scenario was not run here: the loop answers from it and
        harvests nothing, so a run whose disk hook fired never becomes
        a golden, and the history does not move."""
        from repro.cli import _warm_memory

        space = model_space(replkv, "errno+disk", max_call=3)
        injector = functools.partial(model_injector, "errno+disk")

        def engine(**kwargs):
            return CampaignEngine(
                replkv, fabric="threads", workers=2,
                injector_factory=injector, **kwargs)

        def run(on, **kwargs):
            return on.explore(space, FitnessGuidedSearch(), iterations=160,
                              seed=5, batch_size=8, **kwargs)

        journal = tmp_path / "campaign.ckpt"
        with engine() as cold:
            plain = run(cold, checkpoint_path=journal)
            identity = cold.identity
        warmed = ReportMemory()
        _warm_memory(warmed, str(journal), identity, "unused")
        assert len(warmed) == 160
        # Harvest-order worst case: every hooked scenario of the history
        # is answered, before the hook-free ones are asked.
        hooked = [
            test.fault for test in plain.results
            if injector().plan_for(
                {k: v for k, v in test.fault.as_dict().items()
                 if k != "test"}).hooks
        ]
        assert hooked
        with engine(memory=warmed) as warm:
            explorer = ClusterExplorer(
                warm._ensure_cluster(), space, standard_impact(),
                FitnessGuidedSearch(), IterationBudget(1),
                goldens=warm._goldens, injector=injector(), memory=warmed)
            explorer._execute(hooked)
            assert explorer.remembered == len(hooked)
            again = run(warm)
            assert warm._goldens.stats() == {"goldens": 0, "hits": 0}
        assert again.digest == plain.digest
        assert again.remembered == 160

    def test_checkpoint_resume_over_warm_goldens(self, tmp_path):
        path = tmp_path / "ck.json"
        with fresh_engine("serial") as engine:
            campaign(engine)                               # warm the store
            engine.explore(
                model_space(engine.target, "errno", max_call=10),
                FitnessGuidedSearch(), iterations=40, seed=7, batch_size=8,
                checkpoint_path=path, checkpoint_every=8,
            )
            resumed = campaign(engine, resume_from=path)
        assert resumed.golden_stats["hits"] > 0
        assert resumed.digest == cold_digest("serial")


def explorer_run(target, store, *, seed, iterations, batch_size,
                 wrap=lambda cluster: cluster, **options):
    """One campaign over a one-manager ``LocalCluster`` (inside whatever
    ``wrap`` puts around it); ``store`` None is the oracle that ships
    everything.  Returns (results, proposals)."""
    proposed: list[Fault] = []
    injector = model_injector("errno")
    explorer = ClusterExplorer(
        wrap(LocalCluster([NodeManager("solo", target, injector)])),
        model_space(target, "errno", max_call=10), standard_impact(),
        FitnessGuidedSearch(), IterationBudget(iterations),
        rng=seed, batch_size=batch_size,
        on_test=lambda test: proposed.append(test.fault),
        goldens=store, injector=store and injector, **options,
    )
    return explorer.run(), proposed


def session_run(target, store, *, seed, iterations, batch_size, **options):
    """One campaign on an in-process session; ``store`` None runs a bare
    callable, which answers nothing.  Returns (results, proposals)."""
    proposed: list[Fault] = []
    runner = TargetRunner(target)
    session = ExplorationSession(
        runner if store is not None else (lambda fault: runner(fault)),
        model_space(target, "errno", max_call=10), standard_impact(),
        FitnessGuidedSearch(), IterationBudget(iterations),
        rng=seed, batch_size=batch_size,
        on_test=lambda test: proposed.append(test.fault),
        **({"goldens": store} if store is not None else {}), **options,
    )
    return session.run(), proposed


class TestExplorerProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 20),
        iterations=st.integers(min_value=33, max_value=120),
        batch_size=st.sampled_from([1, 8, 32]),
        killed_at=st.integers(min_value=1, max_value=32),
    )
    def test_the_store_moves_nothing(
            self, coreutils, tmp_path_factory, seed, iterations, batch_size,
            killed_at):
        shape = dict(seed=seed, iterations=iterations, batch_size=batch_size)
        oracle, proposals = explorer_run(coreutils, None, **shape)

        def same(run) -> bool:
            results, proposed = run
            return (results.digest == oracle.digest
                    and results.failed_count() == oracle.failed_count()
                    and proposed == proposals)

        # Two campaigns on one store: cold, then warm.
        store = GoldenStore()
        assert same(explorer_run(coreutils, store, **shape))
        cold = store.stats()
        assert same(explorer_run(coreutils, store, **shape))
        assert store.stats()["goldens"] == cold["goldens"]
        assert store.stats()["hits"] >= 2 * cold["hits"]

        # Killed in the round that reaches ``killed_at`` tests, resumed
        # over a cold store (replay feeds ``on_test`` too).
        path = tmp_path_factory.mktemp("ck") / "ck.json"
        explorer_run(
            coreutils, GoldenStore(), seed=seed, iterations=killed_at,
            batch_size=batch_size, checkpoint_path=path, checkpoint_every=1)
        assert same(explorer_run(
            coreutils, GoldenStore(), resume_from=load_checkpoint(path),
            **shape))

        # A session with a store, cold then warm, and one without: one
        # digest (the session family's own).
        plain, plain_proposals = session_run(coreutils, None, **shape)
        store = GoldenStore()
        for _ in range(2):
            results, proposed = session_run(coreutils, store, **shape)
            assert results.digest == plain.digest
            assert results.failed_count() == plain.failed_count()
            assert proposed == plain_proposals == proposals
        assert store.stats()["hits"] > 0


def comparable(report):
    """A report without how fast it ran."""
    return dataclasses.replace(report, cost=0.0)


class TestFabricHygiene:
    """An explorer that answers some scenarios itself ships rounds whose
    request ids have gaps, to fabrics that may retry, requeue or lose
    connections; none of them may assume ``range(n)``."""

    IDS = (3, 7, 8, 20, 41)

    @pytest.mark.parametrize("kind", ["processes", "socket", "retried"])
    def test_request_ids_with_gaps(self, coreutils, kind):
        factory = functools.partial(target_by_name, "coreutils")
        space = model_space(coreutils, "errno", max_call=10)
        rng = random.Random(5)
        requests = [
            TestRequest(i, fault.subspace, fault.as_dict())
            for i in self.IDS for fault in [space.random_fault(rng)]
        ]
        nodes = []
        if kind == "processes":
            fabric = ProcessPoolCluster(factory, workers=2)
        elif kind == "socket":
            fabric = SocketFabric("127.0.0.1:0", expected_nodes=2)
            for i in range(2):
                nodes.append(ExplorerNode(
                    (fabric.host, fabric.port), factory, name=f"gap{i}"))
                nodes[-1].run_in_thread()
            fabric.wait_for_nodes(timeout=10)
        else:
            # Every request's first attempt is lost: the retry is a
            # round of the same non-contiguous ids.
            chaos = ChaosCluster(
                LocalCluster([NodeManager("n", coreutils)]),
                drop_rate=1.0, rng=0)
            fabric = FaultTolerantFabric(
                chaos, policy=RetryPolicy(base_delay=0.0, jitter=0.0))
        try:
            reports = fabric.run_batch(requests)
        finally:
            getattr(fabric, "close", lambda: None)()
        local = NodeManager("ref", coreutils)
        assert [comparable(r) for r in reports] \
            == [comparable(local.execute(r)) for r in requests]
        if kind == "retried":
            assert chaos.drops == len(self.IDS)
            assert fabric.health.retries > 0 and fabric.health.accounted()

    def test_chaos_at_twenty_percent_converges(self, coreutils):
        shape = dict(seed=11, iterations=160, batch_size=32)
        oracle, proposals = explorer_run(coreutils, None, **shape)
        chaos = []

        def sabotaged(cluster):
            chaos.append(ChaosCluster(
                cluster, drop_rate=0.1, corrupt_rate=0.1, rng=13))
            return FaultTolerantFabric(
                chaos[-1], policy=RetryPolicy(base_delay=0.0, jitter=0.0))

        store = GoldenStore()
        for _ in range(2):      # cold store, then warm
            results, proposed = explorer_run(
                coreutils, store, wrap=sabotaged, **shape)
            assert chaos[-1].drops > 0 and chaos[-1].corruptions > 0
            assert results.digest == oracle.digest
            assert proposed == proposals
        assert 0 < store.stats()["hits"] < 2 * len(oracle)

    def test_a_node_lost_and_back_mid_campaign_keeps_the_store(self):
        """The store is the engine's, the wire tables the connection's:
        a node that dies and re-registers mid-campaign costs a requeue
        and a fresh ``WireSession``, never a golden or a digest."""
        factory = functools.partial(target_by_name, "coreutils")
        nodes: list[ExplorerNode] = []

        def start(net, name):
            nodes.append(ExplorerNode(
                (net.host, net.port), factory, name=name, capacity=2,
                heartbeat_interval=0.1))
            nodes[-1].run_in_thread()

        fabrics = []

        def launch(net):
            fabrics.append(net)
            for i in range(2):
                start(net, f"flaky{i}")

        def bounce(test):
            if test.index == 40:
                nodes[0].stop()
                start(fabrics[0], "flaky0")

        with CampaignEngine(
            factory(), fabric="socket", workers=2, target_factory=factory,
            on_fabric=launch,
        ) as engine:
            first = campaign(engine, on_test=bounce)
            goldens = first.golden_stats["goldens"]
            second = campaign(engine)
            net = fabrics[0]
            assert net.registrations == 3
            assert net.health.corrupt_reports == 0
        assert first.digest == second.digest == cold_digest("threads")
        assert second.golden_stats["goldens"] == goldens > 0
        assert second.golden_stats["hits"] > first.golden_stats["hits"] > 0


class TestObservability:
    def test_counters_and_the_accounting_identity(self, coreutils):
        metrics = MetricsRegistry()
        session = ExplorationSession(
            TargetRunner(coreutils, metrics=metrics),
            FaultSpace.product(test=[1]), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(1), metrics=metrics,
            memory=ReportMemory())
        assert metrics.counters()["sim.golden_hits"] == 0   # exported at zero
        session._execute([
            Fault.of(test=1, function="malloc", call=0),     # executed
            Fault.of(test=1, function="malloc", call=1),     # executed
        ])
        session._execute([
            unreachable_fault(),                             # golden
            unreachable_fault(),                             # golden
            Fault.of(test=1, function="malloc", call=1),     # remembered
        ])
        counters = metrics.counters()
        executions = metrics.snapshot()["histograms"][
            "runner.execute_seconds"]["count"]
        assert (counters["runner.tests"], executions,
                counters["sim.golden_hits"], counters["sim.remembered_hits"]) \
            == (2, 2, 2, 1)
        assert session.goldens.stats() == {"goldens": 1, "hits": 2}

    def test_golden_hit_span_replaces_execute(self, coreutils):
        sink = RingBufferSink()
        tracer = Tracer(sinks=[sink])
        session = ExplorationSession(
            TargetRunner(coreutils, tracer=tracer),
            FaultSpace.product(test=[1]), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(1), tracer=tracer)
        one(session, Fault.of(test=1, function="malloc", call=0))
        one(session, unreachable_fault())
        spans = [(e["name"], e["attrs"]) for e in sink.events]
        assert spans == [("execute", {"test": 1}), ("golden_hit", {"test": 1})]

    def test_the_loop_is_the_one_emitter(self):
        """Above a fabric the explorer counts and spans its own answers,
        from golden runs and from the engine's memo, and the managers
        below answer nothing; the gauges see what was shipped, and every
        scenario is executed, answered from a golden run, or
        remembered."""
        metrics, sink = MetricsRegistry(), RingBufferSink()
        with fresh_engine(
            "threads", metrics=metrics, tracer=Tracer(sinks=[sink]),
        ) as engine:
            first = campaign(engine)
            run = campaign(engine)
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        above = run.golden_stats["hits"]
        assert above > first.golden_stats["hits"] > 0
        # The repeat is answered above the fabric in full: what its own
        # goldens do not answer, the memory does.
        assert first.remembered == 0
        assert run.remembered == 96 - (above - first.golden_stats["hits"])
        assert counters["sim.remembered_hits"] == run.remembered
        assert counters["sim.golden_hits"] == above
        assert counters["session.tests"] == 2 * 96 == (
            snapshot["histograms"]["runner.execute_seconds"]["count"]
            + counters["sim.golden_hits"] + counters["sim.remembered_hits"])
        assert counters["runner.tests"] == 2 * 96 - above - run.remembered
        # One ``golden_hit`` / ``remembered_hit`` per answer, each under
        # its round's dispatch span — beside, not under, the ``execute``
        # spans of that round.
        names = {e["span"]: e["name"] for e in sink.events}
        for name, count in (("golden_hit", above),
                            ("remembered_hit", run.remembered)):
            hits = [e for e in sink.events if e["name"] == name]
            assert len(hits) == count
            assert {names[e["parent"]] for e in hits} == {"dispatch"}
        # Rounds are 8 proposals wide; what the fabric saw is what
        # shipped, all of it in the first campaign's 12 rounds.
        dispatched = snapshot["histograms"]["fabric.dispatch_seconds"]["count"]
        assert dispatched <= 12
        assert snapshot["gauges"]["fabric.batch.size"] < 8

    def test_an_all_answered_round_never_reaches_the_fabric(self, coreutils):
        class Unreachable:
            def __len__(self):
                return 1

            def run_batch(self, requests):
                raise AssertionError("nothing should have been shipped")

        injector = model_injector("errno")
        store = GoldenStore()
        free = Fault.of(test=1, function="malloc", call=0)
        warm = NodeManager("warm", coreutils, injector).execute(
            TestRequest(0, "", free.as_dict()))
        store.harvest(1, warm.result.outcome, warm.call_counts)
        metrics = MetricsRegistry()
        explorer = ClusterExplorer(
            Unreachable(), model_space(coreutils, "errno", max_call=10),
            standard_impact(), FitnessGuidedSearch(), IterationBudget(1),
            batch_size=3, metrics=metrics,
            goldens=store, injector=injector,
        )
        batch = [unreachable_fault()] * 3
        records = explorer._execute(batch)
        assert [result.injected for result in records] == [False] * 3
        assert store.stats() == {"goldens": 1, "hits": 3}
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["sim.golden_hits"] == 3
        assert "fabric.queue_depth" not in snapshot["gauges"]

    def test_a_store_without_an_injector_is_refused(self, coreutils):
        with pytest.raises(ClusterError, match="injector"):
            ClusterExplorer(
                LocalCluster([NodeManager("n", coreutils)]),
                model_space(coreutils, "errno", max_call=1),
                standard_impact(), FitnessGuidedSearch(), IterationBudget(1),
                goldens=GoldenStore(),
            )


class TestRememberedAnswers:
    """Above every cluster fabric the engine answers a scenario its fleet
    already ran from the report it sent back, and ships only what
    neither its goldens nor that memory can answer."""

    @pytest.mark.parametrize("fabric", ["threads", "processes", "socket"])
    @pytest.mark.parametrize("target, model", [
        ("coreutils", "errno"), ("replkv", "errno+disk"),
    ])
    def test_a_remembered_answer_is_a_cold_execution(
            self, fabric, target, model):
        """Re-ask every scenario of a finished campaign through the
        engine's warm stores: none ships, and each one the memory answers
        is executed cold and equals the remembered view field by field —
        fired or not, and (``errno+disk``) hooked plans, which goldens
        never answer."""
        with fresh_engine(fabric, target, model) as engine:
            run = campaign(engine, model)
            seam = ExplorerSeam(engine.target, model, engine=engine)
            for test in run.results:
                seam.check(test.fault)
        assert run.remembered == 0
        assert seam.shipped == 0
        assert seam.answered + seam.remembered == len(run.results) == 96
        assert seam.remembered_fired > 0
        if model == "errno+disk":
            assert seam.remembered_hooked > 0
            assert seam.remembered > seam.remembered_fired   # hooks alone

    def test_proposals_are_goldens_plus_remembered_plus_shipped(self):
        """On every cluster fabric, per campaign; one set of numbers
        whichever fabric ran the history.  The repeat ships nothing."""
        numbers, cold = {}, {}
        for seed in (7, 8):
            with fresh_engine("threads") as engine:
                cold[seed] = campaign(engine, seed=seed).digest
        for fabric in ("threads", "virtual", "processes", "socket"):
            counts = []
            with fresh_engine(fabric) as engine:
                cluster = engine._ensure_cluster()
                run_batch = cluster.run_batch

                def counting(requests):
                    counts[-1][2] += len(requests)
                    return run_batch(requests)

                cluster.run_batch = counting
                golden = 0
                for seed in (7, 7, 8):
                    counts.append([0, 0, 0])
                    run = campaign(engine, seed=seed)
                    counts[-1][:2] = (
                        run.golden_stats["hits"] - golden, run.remembered)
                    golden = run.golden_stats["hits"]
                    assert run.digest == cold[seed]
                    assert sum(counts[-1]) == len(run.results) == 96
            numbers[fabric] = counts
        first = numbers["threads"]
        assert all(counts == first for counts in numbers.values()), numbers
        assert first[0][1] == 0 and first[1][2] == 0
        assert first[1][1] == 96 - first[1][0] > 0

    @settings(max_examples=10, deadline=None)
    @given(
        target=st.sampled_from(["coreutils", "replkv"]),
        campaigns=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.sampled_from(["fitness", "random", "genetic",
                                 "exhaustive"]),
                st.sampled_from([1, 8, 32]),
            ),
            min_size=2, max_size=4,
        ),
    )
    def test_a_warm_engine_moves_no_digest(self, target, campaigns):
        """Each campaign of a drawn sequence on one warm engine gets the
        digest a fresh engine gets; a repeated one ships nothing."""
        from repro.service.spec import CampaignSpec

        model = "errno+disk" if target == "replkv" else "errno"

        def spec(seed, strategy, batch_size):
            return CampaignSpec(
                target=target, strategy=strategy, iterations=40, seed=seed,
                fault_model=model, max_call=3, fabric="threads", workers=2,
                batch_size=batch_size)

        def explore(engine, shape):
            return engine.explore(
                spec(*shape).build_space(engine.target),
                spec(*shape).build_strategy(), iterations=40,
                seed=shape[0], batch_size=shape[2])

        golden = 0
        with spec(*campaigns[0]).build_engine() as warm:
            for index, shape in enumerate(campaigns):
                run = explore(warm, shape)
                with spec(*shape).build_engine() as fresh:
                    assert run.digest == explore(fresh, shape).digest
                answered = run.golden_stats["hits"] - golden
                golden = run.golden_stats["hits"]
                if shape in campaigns[:index]:
                    assert answered + run.remembered == len(run.results)


def synthetic_report(index: int, **changes) -> TestReport:
    """Report ``index``; ``changes`` are fields of its record's outcome."""
    fields = dict(
        injection_stack=("main", f"f{index}"), injected=True,
        coverage=frozenset({f"b{index}"}), steps=index,
        measurements={"m": float(index)}, stack_digest=f"d{index}",
    )
    fields.update(changes)
    return TestReport(
        request_id=index, result=Record(index, Outcome(**fields)),
        cost=0.5, spans=(("span",),), call_counts={"read": 1},
    )


def remember(memory: ReportMemory, fault: Fault, report: TestReport) -> None:
    """What the explorer does with a report it shipped for ``fault``."""
    memory.remember(fault, report.result.outcome, report.call_counts)


def exact(value):
    """``value`` as a structure equal only to values of the same types
    and bits: ``1``, ``1.0`` and ``True``, or ``0.0`` and ``-0.0``, differ."""
    if isinstance(value, dict):
        return dict, tuple((exact(k), exact(v)) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return type(value), tuple(map(exact, value))
    if isinstance(value, frozenset):
        return frozenset, frozenset(map(exact, value))
    if isinstance(value, float):
        return float, value.hex()
    return type(value), value


def assert_same_record(got: RunResult, want: RunResult) -> None:
    """``got`` and ``want`` agree field by field, type by type."""
    for field in dataclasses.fields(RunResult):
        assert exact(getattr(got, field.name)) == exact(
            getattr(want, field.name)), field.name


def executions(target, model: str, draws: int, seed: object):
    """``(scenario, report)`` of distinct drawn scenarios, executed."""
    space = model_space(target, model, max_call=4)
    rng = random.Random(seed)
    faults = list(dict.fromkeys(space.random_fault(rng)
                                for _ in range(draws)))
    manager = NodeManager("m", target, model_injector(model))
    return [(fault, manager.execute(TestRequest(i, fault.subspace,
                                                fault.as_dict())))
            for i, fault in enumerate(faults)]


TARGET_FIXTURES = ("coreutils", "minidb", "httpd", "docstore_old",
                   "docstore_new", "replkv")


class TestOneRecordEveryPath:
    """One execution, reached every way a history can reach it, is one
    record: the same canonical text, and — where a path answers from
    what it holds — the one interned outcome."""

    @settings(max_examples=40, deadline=None)
    @given(test=st.integers(min_value=1, max_value=29),
           function=st.sampled_from(("malloc", "open", "read", "stat",
                                     "opendir", "fputs")),
           call=st.integers(min_value=0, max_value=3))
    def test_every_path_gives_the_same_record(self, test, function, call):
        from repro.cluster.wire import (
            WireSession, decode_binary_frame, encode_report_frame,
        )
        from repro.core.cache import result_to_json
        from repro.core.checkpoint import build_checkpoint, save_checkpoint
        from repro.core.results import ExecutedTest

        target = target_by_name("coreutils")
        fault = Fault.of(test=test, function=function, call=call)
        runner = TargetRunner(target)
        executed = record(runner(fault))                        # run

        memory = ReportMemory()
        loop = ExplorationSession(
            lambda scenario: runner(scenario), FaultSpace.product(test=[1]),
            standard_impact(), FitnessGuidedSearch(), IterationBudget(1),
            memory=memory)
        first, = loop._execute([fault])
        remembered, = loop._execute([fault])                    # memo
        assert loop.remembered == 1

        session = bare_session(TargetRunner(target))
        session._execute([Fault.of(test=test, function="malloc", call=0)])
        answered, = session._execute([fault])                   # golden
        golden = session.goldens.hits == 1
        assert golden == (not executed.injected)

        report = NodeManager("m", target).execute(
            TestRequest(0, fault.subspace, fault.as_dict()))
        sender, receiver = WireSession(), WireSession()
        inline, reference = (                                   # wire
            decode_binary_frame(encode_report_frame(
                [dataclasses.replace(report, request_id=i)], 0, sender)[4:],
                receiver)
            for i in range(2))
        assert (inline["referenced"], reference["referenced"]) == (0, 1)
        pickled = pickle.loads(pickle.dumps(report))           # pool

        with tempfile.TemporaryDirectory() as scratch:          # journal
            path = os.path.join(scratch, "one.ckpt")
            save_checkpoint(path, build_checkpoint(
                [ExecutedTest(0, fault, first, 1.0, 1.0)],
                random.Random(0), loop.space, 1))
            loaded = load_checkpoint(path).restore_executed()[0].result

        paths = [executed, first, remembered, inline["reports"][0].result,
                 reference["reports"][0].result, pickled.result, loaded]
        if golden:
            paths.append(answered)
        assert len({result_to_json(result) for result in paths}) == 1
        assert {result.test_id for result in paths} == {test}
        held = [remembered, reference["reports"][0].result]
        if golden:
            held.append(answered)
        assert all(result.outcome is executed.outcome for result in held)


class TestOneOutcomeTable:
    """Outcomes are interned by type and bit: what ``==`` calls equal
    but encodes otherwise is two outcomes, wherever it is interned."""

    @pytest.mark.parametrize(("field", "twins"), [
        ("measurements", [{"m": 0.0}, {"m": -0.0}]),
        ("measurements", [{"m": 1}, {"m": 1.0}, {"m": True}]),
        ("invariant_violations", [(1,), (1.0,), (True,)]),
        ("injection_stack", [(0,), (0.0,), (-0.0,), (False,)]),
        ("measurements", [
            {"m": struct.unpack(">d", bytes.fromhex(bits))[0]}
            for bits in ("7ff8000000000000", "7ff8000000000001")]),
    ])
    def test_equal_looking_values_never_alias(self, field, twins):
        outcomes = [Outcome(**{field: value}) for value in twins]
        assert len({id(outcome) for outcome in outcomes}) == len(twins)
        again = [Outcome(**{field: value}) for value in twins]
        assert all(a is b for a, b in zip(outcomes, again))
        for outcome, value in zip(outcomes, twins):
            held = getattr(outcome, field)
            assert repr(held) == repr(value)
            assert type(next(iter(held.values())) if field == "measurements"
                        else held[0]) is type(
                next(iter(value.values())) if field == "measurements"
                else value[0])

    def test_measurement_order_is_not_identity(self):
        first = Outcome(measurements={"a": 1.0, "b": 2.0})
        assert Outcome(measurements={"b": 2.0, "a": 1.0}) is first
        assert list(first.measurements) == ["a", "b"]

    def test_what_no_key_stands_for_is_never_shared(self):
        from repro.sim.libc import ProvenanceRecord

        log = (ProvenanceRecord(1, "open", 1, "path", None, True),)
        one, other = (Outcome(provenance=log) for _ in range(2))
        assert one.key is None and one is not other
        assert one.provenance == other.provenance

    def test_an_outcome_and_a_record_are_immutable(self):
        outcome = Outcome(exit_code=1)
        pair = Record(3, outcome)
        with pytest.raises(AttributeError):
            outcome.exit_code = 0
        with pytest.raises(AttributeError):
            pair.test_id = 4
        assert (pair.failed, pair.plan, pair.call_counts) == (
            True, NO_PLAN, {})


class TestRecordPickles:
    """A record pickles as its test id and its outcome's field values,
    and unpickles into the receiving process's intern table: it crosses
    a process pool lean.  A full ``RunResult`` pickles whole."""

    @pytest.mark.parametrize("model", ["errno", "errno+disk"])
    @pytest.mark.parametrize("fixture", TARGET_FIXTURES)
    def test_full_results_and_records_round_trip(self, request, fixture,
                                                 model):
        target = request.getfixturevalue(fixture)
        space = model_space(target, model, max_call=4)
        rng = random.Random(f"{fixture}/{model}")
        runner = TargetRunner(target, model_injector(model))
        for fault in dict.fromkeys(space.random_fault(rng)
                                   for _ in range(12)):
            full = runner(fault)
            for result in (full, record(full)):
                assert_same_record(pickle.loads(pickle.dumps(result)), result)

    def test_a_provenance_log_round_trips_as_its_records(self, coreutils):
        full = TargetRunner(coreutils, provenance=True)(
            Fault.of(test=12, function="link", call=1))
        assert full.provenance
        again = pickle.loads(pickle.dumps(full))
        assert again == full
        assert tuple(again.provenance) == tuple(full.provenance)

    def test_a_record_pickles_without_field_names_or_blank_tails(self):
        report = synthetic_report(3)
        data = pickle.dumps(report.result)
        assert b"call_counts" not in data and b"test_name" not in data
        # The pair, and the outcome's values: no blank field travels.
        assert report.result.__reduce__() == (
            Record, (3, report.result.outcome))
        assert len(report.result.outcome.__reduce__()[1][0]) \
            == len(OUTCOME_FIELDS) == 15
        again = pickle.loads(data)
        assert again == report.result
        assert again.outcome is report.result.outcome

    def test_a_field_that_equals_its_default_in_another_type_is_kept(self):
        result = synthetic_report(3, open_fds=False).result
        again = pickle.loads(pickle.dumps(result))
        assert_same_record(again, result)
        assert again.outcome is result.outcome
        assert again.outcome is not synthetic_report(3, open_fds=0).result.outcome
        full = dataclasses.replace(
            run_test(target_by_name("coreutils"),
                     target_by_name("coreutils").suite[1]),
            open_fds=False, setup_steps=0.0)
        assert_same_record(pickle.loads(pickle.dumps(full)), full)


class TestReportMemory:
    def test_lru_eviction_at_the_memos_own_capacity(self):
        """The memo's bound is its own; the ledger's ``ResultCache``
        keeps the shared default."""
        memory = ReportMemory()
        capacity = memory.capacity
        assert capacity == 65_536
        assert ResultCache().capacity == DEFAULT_CAPACITY == 4096
        faults = [Fault.of(test=i, function="read", call=1)
                  for i in range(capacity + 2)]
        for index, fault in enumerate(faults[:capacity]):
            remember(memory, fault, synthetic_report(index))
        assert memory.answer(faults[0]) is not None      # now the newest
        for index in (capacity, capacity + 1):
            remember(memory, faults[index], synthetic_report(index))
        assert len(memory) == capacity
        assert memory.answer(faults[1]) is memory.answer(faults[2]) is None
        assert memory.answer(faults[0])[0].steps == 0
        assert (len(memory), memory.hits) == (capacity, 2)
        # An evicted entry's outcome goes with it.
        assert memory.stats()["bodies"] == capacity
        assert all(memory.answer(fault)[0].steps == index for index, fault
                   in enumerate(faults) if index not in (1, 2))

    def test_an_entry_is_the_explorers_view_and_shares_equal_values(self):
        memory = ReportMemory()
        reports = [synthetic_report(
            # Equal values, distinct objects: what two reports decoded
            # from the wire carry.
            index, coverage=frozenset(["a", "b"]),
            injection_stack=tuple(["main", "read"]), steps=steps,
            stack_digest="".join(["d", "0"]), measurements={"m": 1.0},
        ) for index, steps in ((0, 1), (1, 1), (2, 2))]
        faults = [Fault.of(test=i, function="read", call=1) for i in range(3)]
        for fault, report in zip(faults, reports):
            remember(memory, fault, report)
        (first, reach), (second, _), (third, _) = map(memory.answer, faults)
        # Equal outcomes are one object, interned before the memo saw
        # them, and outcomes that differ share their equal coverage set.
        assert first is second is reports[1].result.outcome
        assert third is not first and third.coverage is first.coverage
        # Equal key attributes are one object too: a key holds no pair.
        first_key, other_key, _ = memory._entries
        assert first_key[3:] == other_key[3:]
        assert all(a is b for a, b in zip(first_key[3:], other_key[3:]))
        # The entry is the report's outcome, no more.
        assert (Record(0, first), first.stack_digest) == (
            reports[0].result, "d0")
        # Beside it, the reach the report carried.
        assert reach == {"read": 1}

    def test_equal_bodies_are_one_and_the_test_id_is_the_scenarios(self):
        """Records that differ only in their test id hold one body, and
        what answers a scenario is that body with the test the scenario
        names — whatever test the remembered record was of."""
        memory = ReportMemory()
        faults = [Fault.of(test=i, function="read", call=1) for i in (3, 9)]
        for recorded_as, fault in zip((7, 9), faults):
            remember(memory, fault, synthetic_report(
                recorded_as, coverage=frozenset({"x"}), injection_stack=None,
                steps=5, stack_digest="d", measurements={"m": 2.0}))
        assert memory.stats()["bodies"] == 1 and len(memory) == 2

        def unexecuted(fault):
            raise AssertionError(f"{fault} should have been remembered")

        loop = ExplorationSession(
            unexecuted, FaultSpace.product(test=[1]), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(1), memory=memory)
        first, second = loop._execute(faults)
        assert (first.test_id, second.test_id) == (3, 9)
        assert first is not second
        assert first.outcome is second.outcome
        assert Record(9, first.outcome) == second

    def test_measurements_share_only_what_encodes_the_same(self):
        """0.0 == -0.0 and 1 == 1.0 == True, but no record is answered
        with another's: their bodies are distinct."""
        memory = ReportMemory()
        values = (0.0, -0.0, 1, 1.0, True)
        faults = [Fault.of(test=i) for i in range(len(values))]
        reports = [synthetic_report(0, measurements={"m": value})
                   for value in values]
        for fault, report in zip(faults, reports):
            remember(memory, fault, report)
        assert memory.stats()["bodies"] == len(values)
        for fault, value, report in zip(faults, values, reports):
            got = memory.answer(fault)[0]
            assert (repr(got.measurements["m"]), type(got.measurements["m"])
                    ) == (repr(value), type(value))
            assert got is report.result.outcome

    @pytest.mark.parametrize("model", ["errno", "errno+disk"])
    @pytest.mark.parametrize("fixture", TARGET_FIXTURES)
    def test_an_answer_is_the_record_an_execution_gives(self, request,
                                                        fixture, model):
        """Drawn scenarios of every target: the memo's answer is
        ``record()`` of a fresh execution, field by field and type by
        type, with the test id the scenario names."""
        target = request.getfixturevalue(fixture)
        ran = executions(target, model, 24, f"{fixture}/{model}")
        memory = ReportMemory()
        for fault, report in ran:
            remember(memory, fault, report)
        assert memory.stats()["bodies"] <= len(memory) == len(ran)
        fresh = NodeManager("fresh", target, model_injector(model))
        for index, (fault, _) in enumerate(ran):
            got, reach = memory.answer(fault)
            want = fresh.execute(TestRequest(index, fault.subspace,
                                             fault.as_dict()))
            assert got is want.result.outcome
            assert_same_record(Record(int(fault.value("test")), got),
                               want.result)
            assert reach == want.call_counts

    @pytest.mark.parametrize("fabric", ["serial", "processes"])
    def test_an_evicting_memo_moves_no_campaign(self, fabric):
        """200-test MiniDB campaigns on a memo of 8 entries, forced to
        evict, propose and record what they do on the default memo."""
        runs, stats = {}, {}
        for capacity in (8, ReportMemory.capacity):
            memory = ReportMemory()
            memory.capacity = capacity
            with fresh_engine(fabric, "minidb", memory=memory) as engine:
                space = model_space(engine.target, "errno", max_call=10)
                runs[capacity] = [engine.explore(
                    space, FitnessGuidedSearch(), iterations=200, seed=seed,
                    batch_size=8) for seed in (11, 11, 12)]
            stats[capacity] = memory.stats()
        small, default = runs[8], runs[ReportMemory.capacity]
        for evicting, kept in zip(small, default):
            assert evicting.digest == kept.digest
            assert ([test.fault for test in evicting.results]
                    == [test.fault for test in kept.results])
        assert stats[8]["evictions"] > 0 == stats[ReportMemory.capacity][
            "evictions"]
        assert stats[8]["hits"] < stats[ReportMemory.capacity]["hits"]

    def test_a_minidb_entry_costs_under_a_kilobyte(self, minidb):
        """Keys and bodies included: the memory outlives the campaign
        whose history held them.  Each scenario executes inside the
        measured window and the caller drops its report, so what the
        memo keeps of a record is counted; plans are compiled first,
        which the runner memoizes.  Measured with CPython 3.11: 683 B
        per entry at 4 096 entries and 547 B at 16 384 (outcomes grow
        slower than entries), over a third of it the reach of the
        scenarios that did not fire; the gate leaves a sixth above the
        first for other interpreters' object sizes.
        """
        entries = 4096
        space = model_space(minidb, "errno", max_call=10)
        rng = random.Random(3)
        faults = list(dict.fromkeys(
            space.random_fault(rng) for _ in range(entries + 400)))[:entries]
        assert len(faults) == entries
        manager = NodeManager("m", minidb)
        for fault in faults:
            compile_scenario(manager._runner.injector, fault.as_dict())
        memory = ReportMemory()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index, fault in enumerate(faults):
                remember(
                    memory,
                    Fault(fault.subspace, tuple(fault.as_dict().items())),
                    manager.execute(TestRequest(index, fault.subspace,
                                                fault.as_dict())))
            per_entry = (tracemalloc.get_traced_memory()[0] - before) / entries
        finally:
            tracemalloc.stop()
        assert len(memory) == entries
        assert per_entry <= 800, per_entry

    def test_close_drops_the_memory(self):
        engine = fresh_engine("threads")
        campaign(engine)
        memory = engine._memory
        assert len(memory) > 0
        engine.close()
        assert engine._memory is None
        with engine:
            again = campaign(engine)
            assert engine._memory is not memory
        assert again.remembered == 0
