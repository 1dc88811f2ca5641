"""CampaignEngine: the extraction's digest-parity gate and warm reuse."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import ExplorerNode
from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    TargetRunner,
    standard_impact,
)
from repro.core.runner import ReportMemory
from repro.core.checkpoint import history_digest
from repro.errors import ClusterError, SearchError
from repro.service.engine import CampaignEngine, EngineRun
from repro.service.spec import CampaignSpec
from repro.sim.targets.minidb import MiniDbTarget


def space_for(target):
    return FaultSpace.product(
        test=range(1, 30), function=target.libc_functions(), call=[0, 1, 2]
    )


@pytest.fixture(scope="module")
def reference_digest(coreutils):
    """What the pre-engine serial flow produces for this campaign."""
    results = ExplorationSession(
        TargetRunner(coreutils),
        space_for(coreutils),
        standard_impact(),
        FitnessGuidedSearch(),
        IterationBudget(60),
        rng=1,
    ).run()
    return history_digest(list(results))


class TestDigestParity:
    """The refactor gate: engine campaigns reproduce the legacy flows
    byte-for-byte."""

    def test_serial_matches_session(self, coreutils, reference_digest):
        with CampaignEngine(coreutils) as engine:
            run = engine.explore(
                space_for(coreutils), FitnessGuidedSearch(),
                iterations=60, seed=1,
            )
        assert run.digest == reference_digest

    def test_campaign_job_matches(self, reference_digest):
        """A served job's engine (a spec's, with the ``errno`` model's
        injector) runs the plain session's campaign."""
        spec = CampaignSpec(target="coreutils", iterations=60, seed=1)
        with spec.build_engine() as engine:
            run = engine.explore(
                space_for(engine.target), spec.build_strategy(),
                iterations=spec.iterations, seed=spec.seed,
            )
        assert run.digest == reference_digest

    def test_threads_fabric_same_trajectory_any_workers(self, coreutils):
        """Fabric placement moves *where* tests run, never the search
        trajectory: worker count doesn't change the digest."""
        digests = set()
        for workers in (2, 3):
            with CampaignEngine(
                coreutils, fabric="threads", workers=workers
            ) as engine:
                run = engine.explore(
                    space_for(coreutils), FitnessGuidedSearch(),
                    iterations=60, seed=1, batch_size=4,
                )
            digests.add(run.digest)
        assert len(digests) == 1

    def test_spec_built_engine_matches_cli_flow(self, coreutils):
        """CampaignSpec.build_engine reproduces the `afex run` path, on
        every fabric at batch size 1."""
        for fabric in ("serial", "threads"):
            spec = CampaignSpec(target="coreutils", iterations=40, seed=1,
                                fabric=fabric, workers=2, batch_size=1)
            with spec.build_engine() as engine:
                run = engine.explore(
                    spec.build_space(engine.target), spec.build_strategy(),
                    iterations=spec.iterations, seed=spec.seed,
                    batch_size=spec.batch_size,
                )
            # What `afex run --target coreutils --iterations 40 --seed 1`
            # prints.
            assert run.digest == (
                "a8c28e4a4114ee7a9d59de52cbd76ed505c0a0d2ae549ba09fa3b241b6a6e8d3"
            ), fabric


#: One small MiniDB campaign (fitness, 48 tests, seed 5) down every
#: path.  Every fabric records the same history, so a batch size has one
#: digest wherever it runs.
_FABRIC_DIGEST = (
    "422612ca32dfe327058f68ae257c6b0eced91c657eec8f477d2df9fcf76aa034"
)
_BATCH_ONE_DIGEST = (
    "6ea629ca1c9962c1b01238f626069e1f68445d1cc338c56c4607b9a7421741f9"
)
FROZEN_DIGESTS = [
    ("serial", 1, _BATCH_ONE_DIGEST),
    ("threads", 1, _BATCH_ONE_DIGEST),
    ("serial", 8, _FABRIC_DIGEST),
    ("threads", 8, _FABRIC_DIGEST),
    ("processes", 8, _FABRIC_DIGEST),
    ("socket", 8, _FABRIC_DIGEST),
]


@pytest.mark.parametrize("resume", [False, True], ids=["straight", "resumed"])
@pytest.mark.parametrize(
    ("fabric", "batch_size", "digest"), FROZEN_DIGESTS,
    ids=[f"{fabric}-{batch}" for fabric, batch, _ in FROZEN_DIGESTS],
)
def test_frozen_digest_table(
    minidb, tmp_path, fabric, batch_size, digest, resume
):
    """Any drift in the loop, a fabric, the wire or checkpoint replay
    moves one of these literals."""
    space = FaultSpace.product(
        test=range(1, len(minidb.suite) + 1),
        function=minidb.libc_functions(), call=range(0, 3),
    )
    nodes, threads = [], []

    def launch(net):
        for i in range(2):
            nodes.append(ExplorerNode(
                (net.host, net.port), MiniDbTarget, name=f"frozen{i}",
                capacity=2,
            ))
            threads.append(nodes[-1].run_in_thread())

    engine = CampaignEngine(
        minidb, fabric=fabric, workers=2, target_factory=MiniDbTarget,
        on_fabric=launch,
    )

    def explore(**kwargs):
        return engine.explore(
            space, FitnessGuidedSearch(), seed=5, batch_size=batch_size,
            **kwargs,
        )

    try:
        if resume:
            explore(iterations=24, checkpoint_path=tmp_path / "half.ckpt")
            run = explore(iterations=48, resume_from=tmp_path / "half.ckpt")
        else:
            run = explore(iterations=48)
    finally:
        engine.close()
        for node in nodes:
            node.stop()
        for thread in threads:
            thread.join(timeout=10)
    assert len(run.results) == 48
    assert run.digest == digest


def test_the_records_shared_fields_digest_as_before(minidb):
    """Blank the five fields a record gained over a cluster fabric's old
    report view (crash message and stack, failure message, leak counts)
    and the frozen batch-8 history digests to what every cluster fabric
    recorded before: nothing else of the record moved."""
    space = FaultSpace.product(
        test=range(1, len(minidb.suite) + 1),
        function=minidb.libc_functions(), call=range(0, 3),
    )
    with CampaignEngine(minidb) as engine:
        run = engine.explore(space, FitnessGuidedSearch(), iterations=48,
                             seed=5, batch_size=8)
    assert run.digest == _FABRIC_DIGEST
    blanked = [
        dataclasses.replace(test, result=test.result.replace(
            crash_message=None, crash_stack=None,
            failure_message=None, open_fds=0, leaked_heap_bytes=0,
        ))
        for test in run.results
    ]
    assert history_digest(blanked) == (
        "610f205156c0526c942239238c362217a3b63051980be1f34c037e8e025b74a3"
    )


class TestWarmReuse:
    def test_serial_runner_is_reused(self, coreutils):
        with CampaignEngine(coreutils) as engine:
            assert not engine.warm
            first = engine.explore(
                space_for(coreutils), FitnessGuidedSearch(),
                iterations=20, seed=1,
            )
            assert engine.warm
            assert engine.warm_reuses == 0
            second = engine.explore(
                space_for(coreutils), FitnessGuidedSearch(),
                iterations=20, seed=1,
            )
            assert engine.warm_reuses == 1
            assert engine.runs == 2
        assert first.digest == second.digest

    def test_threads_fabric_is_reused(self, coreutils):
        with CampaignEngine(
            coreutils, fabric="threads", workers=2
        ) as engine:
            a = engine.explore(
                space_for(coreutils), FitnessGuidedSearch(),
                iterations=20, seed=1,
            )
            b = engine.explore(
                space_for(coreutils), FitnessGuidedSearch(),
                iterations=20, seed=1,
            )
            assert engine.warm_reuses == 1
            assert a.digest == b.digest

    @pytest.mark.parametrize("fabric", ["serial", "threads"])
    def test_cached_engine_counts_reuse_and_its_own_hits(
        self, coreutils, fabric
    ):
        """Reading a campaign's memo counts must not build the runner
        before the cold/warm check looks at it."""
        memory = ReportMemory()
        with CampaignEngine(
            coreutils, fabric=fabric, workers=2, memory=memory
        ) as engine:
            first = engine.explore(
                space_for(coreutils), FitnessGuidedSearch(),
                iterations=20, seed=1,
            )
            assert engine.warm_reuses == 0
            # What the loop answers from the engine's golden store never
            # reaches the memo, on any fabric.
            above = first.golden_stats["hits"]
            assert first.remembered == 0
            stats = memory.stats()
            assert 1 <= stats.pop("bodies") <= stats["entries"]
            assert stats == {"entries": 20 - above, "hits": 0,
                             "misses": 20 - above, "evictions": 0}
            second = engine.explore(
                space_for(coreutils), FitnessGuidedSearch(),
                iterations=20, seed=1,
            )
            assert engine.warm_reuses == 1
            above = second.golden_stats["hits"] - above
            # The rest of the repeat is remembered: nothing executes.
            assert second.remembered == memory.hits == 20 - above
            assert memory.misses == 20 - first.golden_stats["hits"]
        assert first.digest == second.digest
        # A given memo is the giver's: closing the engine keeps it.
        assert len(memory) == 20 - first.golden_stats["hits"]

    def test_close_then_reuse_rebuilds(self, coreutils):
        engine = CampaignEngine(coreutils, fabric="threads", workers=2)
        engine.explore(space_for(coreutils), FitnessGuidedSearch(),
                       iterations=10, seed=1)
        engine.close()
        assert not engine.warm
        engine.explore(space_for(coreutils), FitnessGuidedSearch(),
                       iterations=10, seed=1)
        assert engine.warm
        assert engine.warm_reuses == 0  # cold again after close
        engine.close()

    def test_close_is_idempotent(self, coreutils):
        engine = CampaignEngine(coreutils)
        engine.close()
        engine.close()

    def test_campaign_job_reuses_engine_across_executes(self):
        """A spec-built engine, as a served job gets one, stays warm
        across campaigns until it is closed."""
        spec = CampaignSpec(target="coreutils", fabric="threads", workers=2,
                            iterations=20, seed=1)
        engine = spec.build_engine()
        space = spec.build_space(engine.target)

        def explore():
            return engine.explore(space, spec.build_strategy(),
                                  iterations=spec.iterations, seed=spec.seed)

        try:
            first, second = explore(), explore()
            assert engine.warm_reuses >= 1
            assert first.digest == second.digest
        finally:
            engine.close()
        assert not engine.warm


class TestValidation:
    def test_unknown_fabric_rejected(self, coreutils):
        with pytest.raises(ClusterError):
            CampaignEngine(coreutils, fabric="quantum")
        with pytest.raises(ClusterError, match="available"):
            CampaignEngine(coreutils, fabric="auto")   # retired

    @pytest.mark.parametrize("fabric,workers", [
        ("serial", 1), ("threads", 2), ("virtual", 2), ("socket", 2),
    ])
    def test_dispatch_deadline_refused_where_it_cannot_act(
        self, coreutils, fabric, workers,
    ):
        with pytest.raises(ClusterError, match="dispatch deadline"):
            CampaignEngine(coreutils, fabric=fabric, workers=workers,
                           dispatch_deadline=1.0)

    def test_dispatch_deadline_accepted_on_the_process_pool(self, coreutils):
        engine = CampaignEngine(coreutils, fabric="processes", workers=2,
                                dispatch_deadline=1.0)
        assert engine.dispatch_deadline == 1.0

    def test_serial_rejects_auto_batch(self, coreutils):
        # The engine forwards what it is given: the loop's own check
        # refuses whatever is not a positive int, 0 included.
        with CampaignEngine(coreutils) as engine:
            for batch_size in ("auto", 0):
                with pytest.raises(SearchError):
                    engine.explore(
                        space_for(coreutils), FitnessGuidedSearch(),
                        iterations=10, batch_size=batch_size,
                    )


class TestEngineRun:
    def test_run_carries_quality_and_health(self, coreutils):
        with CampaignEngine(
            coreutils, fabric="threads", workers=2
        ) as engine:
            run = engine.explore(
                space_for(coreutils), FitnessGuidedSearch(),
                iterations=30, seed=1, online_quality=True,
            )
        assert isinstance(run, EngineRun)
        assert run.fabric == "threads"
        assert run.health is not None
        assert run.quality_stats is not None
        assert run.seconds > 0
        assert run.runner is not None

    def test_checkpoint_resume_round_trip(self, coreutils, tmp_path):
        """Kill-and-resume through the engine is byte-identical."""
        path = tmp_path / "c.ckpt"
        with CampaignEngine(coreutils) as engine:
            full = engine.explore(
                space_for(coreutils), FitnessGuidedSearch(),
                iterations=40, seed=5,
            )
            # A partial run that checkpoints, stopped short by budget.
            engine.explore(
                space_for(coreutils), FitnessGuidedSearch(),
                iterations=20, seed=5,
                checkpoint_path=path, checkpoint_every=5,
            )
            resumed = engine.explore(
                space_for(coreutils), FitnessGuidedSearch(),
                iterations=40, seed=5, resume_from=path,
            )
        assert resumed.digest == full.digest


class TestSpec:
    def test_canonicalizes_fault_model(self):
        a = CampaignSpec(target="coreutils", fault_model="disk+errno")
        b = CampaignSpec(target="coreutils", fault_model="errno+disk")
        assert a.fault_model == b.fault_model
        assert a.engine_signature() == b.engine_signature()

    def test_round_trips_json(self):
        spec = CampaignSpec(
            target="minidb", fabric="threads", workers=2, batch_size=8,
            iterations=100, seed=1,
        )
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_rejects_unknown_keys_and_values(self):
        from repro.errors import ReportError

        with pytest.raises(ReportError):
            CampaignSpec.from_dict({"target": "coreutils", "bogus": 1})
        with pytest.raises(ReportError):
            CampaignSpec.from_dict({})
        with pytest.raises(ReportError):
            CampaignSpec(target="nope")
        with pytest.raises(ReportError):
            CampaignSpec(target="coreutils", strategy="nope")
        with pytest.raises(ReportError):
            CampaignSpec(target="coreutils", iterations=0)
        with pytest.raises(ReportError):
            CampaignSpec(target="coreutils", fault_model="nope")
