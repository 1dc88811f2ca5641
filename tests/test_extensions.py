"""Tests for the extension features: range faults, multi-fault scenarios,
adaptive sigma, slowdown impact, the §6.3 report, and CLI additions."""

from __future__ import annotations

import math
import random

import pytest

from repro.cli import main
from repro.core import (
    ExhaustiveSearch,
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    SlowdownImpact,
    TargetRunner,
    measure_step_baseline,
    standard_impact,
)
from repro.core.dsl import parse_fault_space
from repro.core.fault import Fault
from repro.errors import InjectionError, ReportError, SearchError
from repro.injection import atomic_for
from repro.injection.models import ScenarioPlan, model_injector
from repro.injection.plan import AtomicFault, InjectionPlan
from repro.quality import build_report
from repro.service.engine import CampaignEngine
from repro.sim.errnos import Errno
from repro.sim.filesystem import SimFilesystem
from repro.sim.libc import SimLibc
from repro.sim.process import run_test


class TestRangeFaults:
    def test_until_fires_across_window(self):
        fault = AtomicFault("read", 3, Errno.EIO, -1, until=5)
        assert not fault.fires_at(2)
        assert fault.fires_at(3) and fault.fires_at(4) and fault.fires_at(5)
        assert not fault.fires_at(6)

    def test_until_before_call_rejected(self):
        with pytest.raises(InjectionError):
            AtomicFault("read", 5, Errno.EIO, -1, until=3)

    def test_until_with_persistent_rejected(self):
        with pytest.raises(InjectionError):
            AtomicFault("read", 1, Errno.EIO, -1, persistent=True, until=3)

    def test_format_parse_roundtrip_with_until(self):
        fault = AtomicFault("read", 2, Errno.EIO, -1, until=7)
        assert AtomicFault.parse(fault.format()) == fault

    def test_libc_honours_range_fault(self):
        libc = SimLibc(SimFilesystem())
        libc.set_plan(InjectionPlan((
            AtomicFault("getrlimit", 2, Errno.EINVAL, -1, until=3),
        )))
        assert libc.getrlimit() > 0     # call 1
        assert libc.getrlimit() == -1   # call 2
        assert libc.getrlimit() == -1   # call 3
        assert libc.getrlimit() > 0     # call 4

    def test_injector_accepts_tuple_call_value(self):
        plan = model_injector("errno").plan_for(
            {"function": "read", "call": (2, 4)}
        )
        fault = plan.faults[0]
        assert fault.call_number == 2 and fault.until == 4

    def test_tuple_starting_at_zero_is_no_injection(self):
        plan = model_injector("errno").plan_for(
            {"function": "read", "call": (0, 4)}
        )
        assert plan.is_empty

    def test_subinterval_axis_drives_range_faults(self, coreutils):
        """The DSL's < lo , hi > axis end-to-end: a (1, 2) sub-interval
        fails both malloc calls in an ln test."""
        from repro.core.axis import Axis

        runner = TargetRunner(coreutils)
        fault = Fault.of(test=12, function="malloc", call=(1, 2))
        result = runner(fault)
        assert result.failed
        assert result.plan.faults[0].until == 2
        # the axis type generating such values:
        axis = Axis.from_subintervals("call", 1, 2)
        assert (1, 2) in axis.values


class TestAtomicFor:
    def test_defaults_resolved(self):
        fault = atomic_for("malloc", 1)
        assert fault.errno is Errno.ENOMEM and fault.retval == 0

    def test_none_for_call_zero(self):
        assert atomic_for("malloc", 0) is None

    def test_missing_function_rejected(self):
        with pytest.raises(InjectionError):
            atomic_for(None, 1)

    def test_bad_tuple_rejected(self):
        with pytest.raises(InjectionError):
            atomic_for("read", (1, 2, 3))


#: mv's rename-EXDEV × read-EIO in 72 points; its exhaustive search
#: reaches ``mv.copy.read_failed`` (``read`` defaults to EINTR, which mv
#: retries, so the space names EIO).
TWO_FAULT_SPACE = """
test : [ 21 , 29 ]
function_a : { rename }
call_a : [ 0 , 1 ]
errno_a : { EXDEV }
function_b : { read }
call_b : [ 0 , 3 ]
errno_b : { EIO }
;
"""

#: the history digest of an rng-0 exhaustive campaign over
#: ``TWO_FAULT_SPACE`` on every fabric.
TWO_FAULT_DIGEST = (
    "170b590b552410e2ce514038a55fbf029afed77a97d1758775a01ab987915e48"
)


class TestMultiFaultInjector:
    """The errno model's suffix-grouped vocabulary: 1..k faults."""

    def setup_method(self):
        self.injector = model_injector("errno")

    def test_suffix_groups_build_two_faults(self):
        plan = self.injector.plan_for({
            "test": 21,
            "function_a": "rename", "call_a": 1, "errno_a": "EXDEV",
            "function_b": "write", "call_b": 1, "errno_b": "ENOSPC",
        })
        assert len(plan) == 2
        assert plan.lookup("rename", 1).errno is Errno.EXDEV
        assert plan.lookup("write", 1).errno is Errno.ENOSPC
        assert type(plan) is ScenarioPlan and not plan.hooks

    def test_zero_call_group_contributes_nothing(self):
        plan = self.injector.plan_for({
            "function_a": "rename", "call_a": 1,
            "function_b": "write", "call_b": 0,
        })
        assert len(plan) == 1

    def test_unsuffixed_attributes_also_work(self):
        plan = self.injector.plan_for({"function": "read", "call": 2})
        assert len(plan) == 1

    def test_mixed_plain_and_suffixed(self):
        plan = self.injector.plan_for({
            "function": "read", "call": 1,
            "function_x": "malloc", "call_x": 3,
        })
        assert plan.functions() == frozenset({"read", "malloc"})

    def test_plain_fault_first_then_sorted_suffixes(self):
        plan = self.injector.plan_for({
            "function_b": "write", "call_b": 1,
            "function_a": "rename", "call_a": 1,
            "function": "read", "call": 2,
        })
        assert [f.function for f in plan.faults] == ["read", "rename", "write"]

    def test_overlapping_same_function_rejected(self):
        with pytest.raises(InjectionError):
            self.injector.plan_for({
                "function_a": "read", "call_a": (1, 5),
                "function_b": "read", "call_b": 3,
            })

    def test_disjoint_same_function_allowed(self):
        plan = self.injector.plan_for({
            "function_a": "read", "call_a": 1,
            "function_b": "read", "call_b": 5,
        })
        assert len(plan) == 2

    def test_empty_scenario_is_refused(self):
        with pytest.raises(InjectionError, match="'function'"):
            self.injector.plan_for({"test": 3})

    def test_all_zero_groups_give_an_empty_plan(self):
        assert self.injector.plan_for({
            "test": 3, "function_a": "rename", "call_a": 0,
        }).is_empty

    def test_two_fault_scenario_reaches_deep_recovery(self, coreutils):
        """mv's copy-fallback write-failure path needs two faults."""
        runner = TargetRunner(coreutils)
        fault = Fault.of(
            test=21,
            function_a="rename", call_a=1, errno_a="EXDEV",
            function_b="write", call_b=1,
        )
        result = runner(fault)
        assert result.failed
        assert "mv.copy.abort" in result.coverage

    def test_multi_fault_exploration_covers_more_recovery(self, coreutils):
        """Exploring (rename-fault x write/close-fault) combinations
        reaches recovery blocks single-fault exploration cannot."""
        space = FaultSpace.product(
            test=range(21, 30),
            function_a=["rename"], call_a=[0, 1],
            function_b=["open", "read", "write", "close", "unlink"],
            call_b=[0, 1, 2],
        )
        session = ExplorationSession(
            runner=TargetRunner(coreutils),
            space=space,
            metric=standard_impact(),
            strategy=FitnessGuidedSearch(initial_batch=15),
            target=IterationBudget(min(120, space.size())),
            rng=5,
        )
        results = session.run()
        covered = results.coverage_union()
        assert "mv.copy.abort" in covered  # unreachable with single faults

    def test_exhaustive_two_fault_space_reaches_read_failed(self, coreutils):
        space = parse_fault_space(TWO_FAULT_SPACE)
        assert space.size() == 72
        results = ExplorationSession(
            runner=TargetRunner(coreutils),
            space=space,
            metric=standard_impact(),
            strategy=ExhaustiveSearch(),
            target=IterationBudget(space.size()),
            rng=0,
        ).run()
        assert "mv.copy.read_failed" in results.coverage_union()
        assert results.digest == TWO_FAULT_DIGEST
        with CampaignEngine(coreutils, fabric="threads", workers=2) as engine:
            threads = engine.explore(space, ExhaustiveSearch(),
                                     iterations=space.size(), seed=0,
                                     batch_size=1)
        assert threads.digest == TWO_FAULT_DIGEST

    def test_cli_runs_a_two_fault_space_file(self, tmp_path, capsys):
        space_file = tmp_path / "two.afex"
        space_file.write_text(TWO_FAULT_SPACE)
        assert main([
            "run", "--target", "coreutils", "--space", str(space_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "space size           | 72" in out
        assert "history digest: " in out


class TestAdaptiveSigma:
    def test_disabled_by_default(self):
        strategy = FitnessGuidedSearch()
        space = FaultSpace.product(x=range(20), y=range(20))
        strategy.bind(space, random.Random(1))
        assert set(strategy.sigma_factors().values()) == {strategy.sigma_factor}

    def test_invalid_bounds_rejected(self):
        with pytest.raises(SearchError):
            FitnessGuidedSearch(adaptive_sigma=True, sigma_bounds=(0.5, 0.1))

    def test_sigma_adapts_during_search(self):
        from repro.injection.plan import InjectionPlan
        from repro.sim.process import RunResult

        space = FaultSpace.product(x=range(40), y=range(40))
        strategy = FitnessGuidedSearch(initial_batch=10, adaptive_sigma=True)
        strategy.bind(space, random.Random(3))
        blank = RunResult(
            test_id=1, test_name="", plan=InjectionPlan.none(), exit_code=0,
            crash_kind=None, crash_message=None, crash_stack=None,
            injection_stack=None, injected=True, coverage=frozenset(),
            steps=1,
        )
        for _ in range(150):
            fault = strategy.propose()
            if fault is None:
                break
            score = 10.0 if fault.value("x") < 8 else 0.0
            strategy.observe(fault, score, blank)
        factors = strategy.sigma_factors()
        low, high = strategy.sigma_bounds
        assert all(low <= f <= high for f in factors.values())
        assert any(f != strategy.sigma_factor for f in factors.values())

    def test_adaptive_still_finds_structure(self):
        """Adaptive sigma must not break the core guarantee."""
        from tests.test_core_search import drive

        space = FaultSpace.product(x=range(40), y=range(40))
        guided = drive(
            FitnessGuidedSearch(initial_batch=15, adaptive_sigma=True),
            space, 200, 2,
        )
        hits = sum(1 for _, s in guided if s > 0)
        assert hits > 10


class TestSlowdownImpact:
    def test_baseline_measurement(self, coreutils):
        baseline = measure_step_baseline(coreutils)
        assert set(baseline) == set(coreutils.suite.ids)
        assert all(v > 0 for v in baseline.values())

    def test_no_slowdown_scores_zero(self, coreutils):
        baseline = measure_step_baseline(coreutils)
        metric = SlowdownImpact(baseline)
        result = run_test(coreutils, coreutils.suite[1])
        assert metric.score(result) == 0.0

    def test_retry_inducing_fault_scores_positive(self, coreutils):
        """rename-EXDEV forces mv through the (slower) copy fallback."""
        baseline = measure_step_baseline(coreutils)
        metric = SlowdownImpact(baseline, scale=10.0)
        runner = TargetRunner(coreutils)
        result = runner(Fault.of(test=29, function="rename", call=1,
                                 errno="EXDEV"))
        assert not result.failed  # recovery works...
        assert metric.score(result) > 0.0  # ...but costs extra work

    def test_unknown_test_scores_zero(self):
        metric = SlowdownImpact({1: 100})
        from tests.test_core_components import make_result

        result = make_result()
        result = type(result)(**{**result.__dict__, "test_id": 99})
        assert metric.score(result) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowdownImpact({})
        with pytest.raises(ValueError):
            SlowdownImpact({1: 0})


class TestExplorationReport:
    @pytest.fixture(scope="class")
    def report(self, coreutils):
        runner = TargetRunner(coreutils)
        space = FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        )
        results = ExplorationSession(
            runner, space, standard_impact(),
            FitnessGuidedSearch(initial_batch=10),
            IterationBudget(120), rng=6,
        ).run()
        return build_report(results, runner, "coreutils",
                            strategy_name="fitness", top_n=8)

    def test_counts_match_exploration(self, report):
        assert report.explored == 120
        assert report.failed > 0

    def test_top_faults_ranked(self, report):
        impacts = [r.executed.impact for r in report.reported]
        assert impacts == sorted(impacts, reverse=True)
        assert len(report.reported) <= 8

    def test_precision_measured_for_every_reported_fault(self, report):
        for reported in report.reported:
            assert reported.precision is not None
            # coreutils faults are deterministic
            assert math.isinf(reported.precision.precision)

    def test_one_replay_script_per_cluster(self, report):
        assert len(report.replay_scripts) == report.cluster_count
        for source in report.replay_scripts.values():
            compile(source, "<replay>", "exec")

    def test_render_mentions_key_fields(self, report):
        text = report.render()
        assert "coreutils" in text and "fitness" in text
        assert "top faults by severity" in text
        assert "deterministic" in text

    def test_relevance_column_when_model_given(self, coreutils):
        from repro.quality import EnvironmentModel

        runner = TargetRunner(coreutils)
        space = FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        )
        results = ExplorationSession(
            runner, space, standard_impact(),
            FitnessGuidedSearch(initial_batch=10),
            IterationBudget(60), rng=6,
        ).run()
        model = EnvironmentModel({"malloc": 1.0})
        report = build_report(results, runner, "coreutils",
                              environment=model, top_n=4)
        assert report.relevance_modelled
        assert "relevance" in report.render()

    def test_empty_results_rejected(self, coreutils):
        from repro.core.results import ResultSet

        with pytest.raises(ReportError):
            build_report(ResultSet([]), TargetRunner(coreutils), "x")

    def test_bad_top_n_rejected(self, report, coreutils):
        from repro.core.results import ResultSet

        with pytest.raises(ReportError):
            build_report(ResultSet([report.reported[0].executed]),
                         TargetRunner(coreutils), "x", top_n=0)


class TestCliExtensions:
    def test_map_command(self, capsys):
        from repro.cli import main

        assert main(["map", "--target", "coreutils", "--tests", "1,12"]) == 0
        out = capsys.readouterr().out
        assert "structure map" in out and "#" in out

    def test_report_command_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "report"
        assert main([
            "report", "--target", "coreutils", "--iterations", "50",
            "--seed", "2", "--top", "3", "--trials", "3",
            "--out", str(out_dir),
        ]) == 0
        assert (out_dir / "report.txt").exists()
        assert list(out_dir.glob("replay_*.py"))

    def test_run_with_feedback_flag(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--target", "coreutils", "--iterations", "30",
            "--seed", "1", "--feedback",
        ]) == 0

    def test_feedback_requires_fitness(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--target", "coreutils", "--strategy", "random",
            "--iterations", "5", "--feedback",
        ]) == 2


class TestSeededSearch:
    """§4: static-analysis seeding of the initial generation phase."""

    def test_seeds_proposed_first(self, coreutils):
        from repro.core.fault import Fault

        space = FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        )
        seeds = (
            Fault.of(test=12, function="malloc", call=1),
            Fault.of(test=2, function="opendir", call=1),
        )
        strategy = FitnessGuidedSearch(initial_batch=5, initial_seeds=seeds)
        strategy.bind(space, random.Random(1))
        assert strategy.propose() == seeds[0]
        assert strategy.propose() == seeds[1]

    def test_invalid_seeds_skipped(self, coreutils):
        from repro.core.fault import Fault

        space = FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        )
        bogus = Fault.of(test=999, function="malloc", call=1)
        good = Fault.of(test=1, function="malloc", call=1)
        strategy = FitnessGuidedSearch(initial_seeds=(bogus, good))
        strategy.bind(space, random.Random(1))
        assert strategy.propose() == good

    def test_suggest_seeds_ranks_memory_first(self, coreutils):
        from repro.injection.callsite import profile_target, suggest_seeds

        profile = profile_target(coreutils)
        seeds = suggest_seeds(profile)
        assert seeds[0].value("function") in ("malloc", "realloc")
        # Every seed is a live injection (call count verified by profile).
        runner = TargetRunner(coreutils)
        for seed in seeds[:5]:
            assert runner(seed).injected

    def test_seeded_search_finds_failures_sooner(self, coreutils):
        """The §4 claim: seeding speeds the early phase of the search."""
        from repro.injection.callsite import profile_target, suggest_seeds

        profile = profile_target(coreutils)
        seeds = suggest_seeds(profile)
        space = FaultSpace.product(
            test=range(1, 30), function=coreutils.libc_functions(),
            call=[0, 1, 2],
        )

        def early_failures(strategy, seed):
            results = ExplorationSession(
                TargetRunner(coreutils), space, standard_impact(),
                strategy, IterationBudget(40), rng=seed,
            ).run()
            return results.failed_count()

        seeded = sum(
            early_failures(
                FitnessGuidedSearch(initial_batch=20, initial_seeds=seeds), s)
            for s in (1, 2, 3)
        )
        unseeded = sum(
            early_failures(FitnessGuidedSearch(initial_batch=20), s)
            for s in (1, 2, 3)
        )
        assert seeded > unseeded


class TestResourceLeaks:
    """The resource-leak impact extension: silent leaks are scorable."""

    def test_baseline_is_clean_for_coreutils(self, coreutils):
        from repro.core import measure_leak_baseline

        baseline = measure_leak_baseline(coreutils)
        # The utilities clean up after themselves when nothing fails.
        assert all(fds == 0 for fds, _ in baseline.values())

    def test_injected_close_failure_leaks_fd_silently(self, minidb):
        """MiniDB's insert survives a failed close — but leaks the fd."""
        from repro.core import ResourceLeakImpact

        runner = TargetRunner(minidb)
        result = runner(Fault.of(test=201, function="close", call=3,
                                 errno="EINTR"))
        assert not result.failed          # the test passes...
        assert result.open_fds == 1       # ...but a descriptor leaked
        assert ResourceLeakImpact().score(result) > 0

    def test_boot_failure_leaks_errmsg_heap(self, minidb):
        runner = TargetRunner(minidb)
        result = runner(Fault.of(test=201, function="fopen", call=1))
        assert result.failed
        assert result.leaked_heap_bytes > 0

    def test_clean_run_scores_zero(self, minidb):
        from repro.core import ResourceLeakImpact

        result = run_test(minidb, minidb.suite[201])
        assert ResourceLeakImpact().score(result) == 0.0

    def test_baseline_subtraction(self):
        from repro.core import ResourceLeakImpact
        from tests.test_core_components import make_result

        result = make_result()
        leaky = type(result)(**{**result.__dict__, "open_fds": 3,
                                "leaked_heap_bytes": 100})
        metric = ResourceLeakImpact(fd_points=5.0, byte_points=0.01,
                                    baseline={1: (2, 50)})
        assert metric.score(leaky) == pytest.approx(5.0 + 0.5)

    def test_leak_guided_exploration_finds_silent_leaks(self, minidb):
        """An exploration scored purely by leaks surfaces passing-but-
        leaky faults that failure-oriented metrics ignore."""
        from repro.core import ResourceLeakImpact

        space = FaultSpace.product(
            test=range(201, 251),     # insert-group tests
            function=["close", "open", "write", "read"],
            call=range(1, 12),
        )
        session = ExplorationSession(
            runner=TargetRunner(minidb),
            space=space,
            metric=ResourceLeakImpact(),
            strategy=FitnessGuidedSearch(initial_batch=15),
            target=IterationBudget(150),
            rng=2,
        )
        results = session.run()
        silent_leaks = [
            t for t in results
            if not t.failed and t.result.open_fds > 0
        ]
        assert silent_leaks, "expected at least one passing-but-leaky fault"
        assert all(t.impact > 0 for t in silent_leaks)


class TestEvictionPolicy:
    def test_strict_min_always_drops_weakest(self):
        import random as _random

        from repro.core.fault import Fault
        from repro.core.queues import Candidate, PriorityQueue

        queue = PriorityQueue(3, _random.Random(1), eviction="strict-min")
        for i, fitness in enumerate((5.0, 1.0, 9.0)):
            queue.add(Candidate(Fault.of(a=i), fitness, fitness))
        queue.add(Candidate(Fault.of(a="new"), 4.0, 4.0))
        fitnesses = sorted(c.fitness for c in queue)
        assert fitnesses == [4.0, 5.0, 9.0]  # the 1.0 candidate went

    def test_unknown_policy_rejected(self):
        import random as _random

        from repro.core.queues import PriorityQueue
        from repro.errors import SearchError

        with pytest.raises(SearchError):
            PriorityQueue(3, _random.Random(1), eviction="lifo")

    def test_strategy_forwards_policy(self):
        space = FaultSpace.product(x=range(10), y=range(10))
        strategy = FitnessGuidedSearch(eviction="strict-min")
        strategy.bind(space, random.Random(1))
        assert strategy._queue().eviction == "strict-min"
