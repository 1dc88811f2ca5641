"""Tests for result-set persistence and the campaign (certification) mode."""

from __future__ import annotations

import pytest

from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    RandomSearch,
    TargetRunner,
    standard_impact,
)
from repro.core.cache import result_to_payload
from repro.core.fault import Fault
from repro.core.results import ResultSet
from repro.injection.models import model_injector, model_space
from repro.quality import build_report
from repro.service import CampaignEngine, CampaignSpec, verdict_of
from repro.sim.targets.coreutils import CoreutilsTarget


def explore(coreutils, iterations=80, seed=3) -> ResultSet:
    return ExplorationSession(
        TargetRunner(coreutils),
        FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        ),
        standard_impact(),
        FitnessGuidedSearch(initial_batch=10),
        IterationBudget(iterations),
        rng=seed,
    ).run()


class TestResultPersistence:
    @pytest.fixture(scope="class")
    def results(self, coreutils) -> ResultSet:
        return explore(coreutils)

    def test_roundtrip_preserves_counts(self, results):
        restored = ResultSet.from_json(results.to_json())
        assert len(restored) == len(results)
        assert restored.failed_count() == results.failed_count()
        assert restored.crash_count() == results.crash_count()

    def test_roundtrip_preserves_faults_and_impacts(self, results):
        restored = ResultSet.from_json(results.to_json())
        for original, loaded in zip(results, restored):
            assert loaded.fault == original.fault
            assert loaded.impact == original.impact
            assert loaded.result.summary() == original.result.summary()

    def test_roundtrip_preserves_clustering_inputs(self, results):
        restored = ResultSet.from_json(results.to_json())
        assert restored.unique_failures() == results.unique_failures()
        assert restored.coverage_union() == results.coverage_union()

    def test_roundtrip_preserves_range_fault_values(self, coreutils):
        runner = TargetRunner(coreutils)
        fault = Fault.of(test=12, function="malloc", call=(1, 2))
        result = runner(fault)
        from repro.core.results import ExecutedTest

        saved = ResultSet([ExecutedTest(0, fault, result, 1.0, 1.0)])
        restored = ResultSet.from_json(saved.to_json())
        assert restored[0].fault.value("call") == (1, 2)

    def test_roundtrip_keeps_the_whole_result(self, replkv):
        """One codec with checkpoints and the store: a reloaded replkv
        campaign still reports its data-loss invariant violations."""
        results = ExplorationSession(
            TargetRunner(replkv, model_injector("errno+disk")),
            model_space(replkv, "errno+disk"), standard_impact(),
            FitnessGuidedSearch(), IterationBudget(200), rng=3,
        ).run()
        assert any(t.result.invariant_violations for t in results)
        assert all(t.result.measurements for t in results)
        restored = ResultSet.from_json(results.to_json())
        for original, loaded in zip(results, restored):
            assert (result_to_payload(loaded.result)
                    == result_to_payload(original.result))

    def test_version_1_document_still_loads(self):
        """A file written before the shared codec: the six keys it never
        had (stdout, stderr, call_counts, ...) read back empty."""
        restored = ResultSet.from_json(
            '{"version": 1, "tests": [{"index": 0, "fault": {"subspace": "",'
            ' "attributes": [["test", 12], ["function", "malloc"],'
            ' ["call", [1, 2]]]}, "impact": 1.0, "fitness": 1.0, "result":'
            ' {"test_id": 12, "test_name": "ln-simple", "plan": "function'
            ' malloc errno ENOMEM retval 0 callNumber 1 callUntil 2",'
            ' "exit_code": 1, "crash_kind": null, "crash_message": null,'
            ' "crash_stack": null, "injection_stack": ["main", "ln_main",'
            ' "malloc"], "injected": true, "coverage": ["ln.main.enter"],'
            ' "steps": 4, "open_fds": 0, "leaked_heap_bytes": 0,'
            ' "failure_message": "ln exited 1", "measurements": {}}}]}'
        )
        (loaded,) = restored
        assert loaded.fault.value("call") == (1, 2)
        assert loaded.failed and loaded.result.plan.faults[0].until == 2
        assert loaded.result.injection_stack == ("main", "ln_main", "malloc")
        assert loaded.result.invariant_violations == ()
        assert loaded.result.stdout == () and loaded.result.call_counts == {}

    def test_save_load_files(self, results, tmp_path):
        path = tmp_path / "run.json"
        results.save(path)
        restored = ResultSet.load(path)
        assert len(restored) == len(results)

    def test_replay_plan_survives_roundtrip(self, results, coreutils):
        restored = ResultSet.from_json(results.to_json())
        failing = restored.failed_tests()
        assert failing
        # The restored fault compiles to a plan executable against the
        # live target.
        from repro.core.runner import compile_scenario
        from repro.sim.process import run_test

        test_id, plan = compile_scenario(
            model_injector("errno"), failing[0].fault.as_dict())
        assert test_id == failing[0].result.test_id
        replayed = run_test(coreutils, coreutils.suite[test_id], plan)
        assert replayed.failed


@pytest.fixture(scope="class")
def certified():
    """Two systems certified the way ``afex serve`` runs a job: a spec,
    its engine, one campaign, the §6.3 report."""
    specs = (
        CampaignSpec(target="coreutils", iterations=60, seed=1),
        CampaignSpec(target="docstore-0.8", strategy="random",
                     iterations=60, seed=1),
    )
    outcomes = []
    for spec in specs:
        with spec.build_engine() as engine:
            run = engine.explore(
                spec.build_space(engine.target), spec.build_strategy(),
                iterations=spec.iterations, seed=spec.seed,
            )
        report = build_report(run.results, run.runner, spec.target,
                              top_n=3, of=lambda t: t.failed)
        outcomes.append((spec.target, run, report))
    return outcomes


class TestCampaign:
    def test_campaign_runs_all_jobs(self, certified):
        assert [name for name, _, _ in certified] == [
            "coreutils", "docstore-0.8",
        ]
        for _, run, report in certified:
            assert len(run.results) == 60
            assert report.explored == 60
            assert run.seconds > 0

    def test_verdicts(self, certified):
        (_, coreutils, _), (_, docstore, _) = certified
        # coreutils fails under injection but never crashes.
        assert verdict_of(coreutils.results) == "FAILURES"
        assert verdict_of(docstore.results) in ("FAILURES", "CLEAN")


class TestCampaignClusterMode:
    def test_cluster_job_produces_same_shape(self):
        from repro.sim.targets.coreutils import CoreutilsTarget

        target = CoreutilsTarget()
        space = FaultSpace.product(
            test=range(1, 30), function=target.libc_functions(),
            call=[0, 1, 2],
        )
        with CampaignEngine(target, fabric="threads", workers=3) as engine:
            run = engine.explore(space, FitnessGuidedSearch(),
                                 iterations=60, seed=2)
        assert len(run.results) >= 60
        assert verdict_of(run.results) == "FAILURES"

    def test_cluster_explorer_supports_environment_model(self):
        from repro.cluster import ClusterExplorer, LocalCluster, NodeManager
        from repro.core import IterationBudget, standard_impact
        from repro.quality import EnvironmentModel
        from repro.sim.targets.coreutils import CoreutilsTarget

        target = CoreutilsTarget()
        space = FaultSpace.product(
            test=range(1, 30), function=target.libc_functions(),
            call=[0, 1, 2],
        )
        model = EnvironmentModel({"malloc": 1.0})
        explorer = ClusterExplorer(
            LocalCluster([NodeManager("n", CoreutilsTarget())]),
            space, standard_impact(), RandomSearch(), IterationBudget(150),
            rng=4, environment=model,
        )
        results = explorer.run()
        nonzero = [t for t in results if t.impact > 0]
        assert nonzero
        assert all(
            t.fault.value("function") == "malloc" for t in nonzero
        )

    def test_invariant_violations_cross_the_wire(self):
        from repro.cluster import NodeManager, TestRequest
        from repro.sim.targets.coreutils import CoreutilsTarget

        manager = NodeManager("n", CoreutilsTarget())
        report = manager.execute(TestRequest(
            request_id=0, subspace="",
            scenario={"test": 27, "function": "stat", "call": 2},
        ))
        assert report.result.invariant_violations
        assert "data lost" in report.result.invariant_violations[0]
