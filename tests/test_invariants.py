"""Tests for fault-injection-oriented assertions (invariants).

§7 "Metrics": "we expect developers to write fault injection-oriented
assertions, such as 'under no circumstances should a file transfer be
only partially completed when the system stops,' in which case one can
count the number of failed assertions."  These tests exercise the
post-mortem invariant hook and the two shipped invariant suites:
DocStore's snapshot-durability contract and mv's no-data-loss contract.
"""

from __future__ import annotations


from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    InvariantImpact,
    IterationBudget,
    TargetRunner,
)
from repro.core.fault import Fault
from repro.injection.models import model_injector
from repro.sim.process import Env, run_test
from repro.sim.testsuite import Target
from repro.sim.testsuite import TestCase as SimTestCase
from repro.sim.testsuite import TestSuite as SimTestSuite


def second_snapshot_write_call(target) -> int:
    """The call number of the last write in a persist test (the 2nd
    snapshot's payload write)."""
    return run_test(target, target.suite[36]).call_counts["write"]


class TestInvariantMachinery:
    def test_default_target_has_no_invariants(self, httpd):
        result = run_test(httpd, httpd.suite[1])
        assert result.invariant_violations == ()
        assert not result.violated

    def test_invariants_run_even_after_crash(self):
        class CrashingTarget(Target):
            name = "crashy"
            version = "0"

            def build_suite(self):
                def body(env: Env) -> None:
                    env.fs.create_file("/precious", b"gold")
                    env.fs.unlink("/precious")  # destroy the data...
                    env.libc.heap.load(0, 0, 1)  # ...then segfault

                return SimTestSuite([
                    SimTestCase(id=1, name="t", group="g", body=body)
                ])

            def invariants(self, env, test):
                if not env.fs.exists("/precious"):
                    return ["precious data gone"]
                return []

        result = run_test(CrashingTarget(), CrashingTarget().suite[1])
        assert result.crash_kind == "segfault"
        assert result.invariant_violations == ("precious data gone",)

    def test_raising_invariant_checker_reported_not_fatal(self):
        class BadCheckerTarget(Target):
            name = "badcheck"
            version = "0"

            def build_suite(self):
                return SimTestSuite([
                    SimTestCase(id=1, name="t", group="g",
                                body=lambda env: None)
                ])

            def invariants(self, env, test):
                raise RuntimeError("checker bug")

        result = run_test(BadCheckerTarget(), BadCheckerTarget().suite[1])
        assert result.violated
        assert "checker raised" in result.invariant_violations[0]

    def test_invariant_impact_metric(self):
        from tests.test_core_components import make_result

        clean = make_result()
        metric = InvariantImpact(points=30.0)
        assert metric.score(clean) == 0.0
        torn = type(clean)(**{
            **clean.__dict__, "invariant_violations": ("lost", "torn"),
        })
        assert metric.score(torn) == 60.0

    def test_invariant_sensor(self):
        from repro.core.sensors import InvariantSensor
        from tests.test_core_components import make_result

        result = make_result()
        torn = type(result)(**{
            **result.__dict__, "invariant_violations": ("x",),
        })
        assert InvariantSensor().measure(torn) == {
            "invariant.violations": 1.0,
        }


class TestDocStoreDurabilityContract:
    def test_v08_failed_second_snapshot_loses_acked_data(self, docstore_old):
        call = second_snapshot_write_call(docstore_old)
        plan = model_injector("errno").plan_for(
            {"function": "write", "call": call, "errno": "ENOSPC"}
        )
        result = run_test(docstore_old, docstore_old.suite[36], plan)
        assert result.failed
        assert result.violated
        assert "destroyed" in result.invariant_violations[0]

    def test_v20_atomic_snapshot_upholds_contract(self, docstore_new):
        call = second_snapshot_write_call(docstore_new)
        plan = model_injector("errno").plan_for(
            {"function": "write", "call": call, "errno": "ENOSPC"}
        )
        result = run_test(docstore_new, docstore_new.suite[36], plan)
        assert result.failed        # the statement errors...
        assert not result.violated  # ...but no acknowledged data is lost

    def test_v20_never_violates_across_persist_sweep(self, docstore_new):
        """Atomic snapshots: no single fault can lose acknowledged data."""
        injector = model_injector("errno")
        for test_id in range(36, 51):  # the persist group
            for function in ("write", "open", "close", "rename", "fsync",
                             "unlink"):
                for call in range(1, 8):
                    plan = injector.plan_for(
                        {"function": function, "call": call}
                    )
                    result = run_test(docstore_new,
                                      docstore_new.suite[test_id], plan)
                    assert not result.violated, (
                        test_id, function, call, result.invariant_violations,
                    )

    def test_v08_violations_found_by_invariant_guided_search(self, docstore_old):
        space = FaultSpace.product(
            test=range(36, 51),
            function=["open", "write", "close"],
            call=range(1, 8),
        )
        session = ExplorationSession(
            runner=TargetRunner(docstore_old),
            space=space,
            metric=InvariantImpact(),
            strategy=FitnessGuidedSearch(initial_batch=10),
            target=IterationBudget(100),
            rng=1,
        )
        results = session.run()
        violations = [t for t in results if t.result.violated]
        assert violations
        assert all(t.impact >= 30.0 for t in violations)


class TestMvDataLossContract:
    def test_no_single_fault_loses_mv_data(self, coreutils):
        """Exhaustive sweep: mv's recovery never loses source data under
        any single injectable fault — with ONE exception the sweep itself
        discovered (see the next test), exactly the way AFEX surfaces
        recovery bugs."""
        injector = model_injector("errno")
        for test_id in (21, 22, 23, 24, 25, 27, 28, 29):
            for function in coreutils.libc_functions():
                for call in (1, 2):
                    if test_id == 27 and function == "stat":
                        continue  # the discovered mv -b TOCTOU (below)
                    plan = injector.plan_for(
                        {"function": function, "call": call}
                    )
                    result = run_test(coreutils, coreutils.suite[test_id],
                                      plan)
                    assert not result.violated, (
                        test_id, function, call,
                        result.invariant_violations,
                    )

    def test_discovered_mv_backup_stat_toctou(self, coreutils):
        """A genuine finding by the invariant sweep: ``mv -b`` decides
        whether to back up the destination with a ``stat`` check.  If
        that stat fails (injected, or a real transient error), mv
        concludes no destination exists, skips the backup, and the
        subsequent rename silently clobbers it — acknowledged data is
        destroyed and mv exits 0.  Real coreutils ``mv -b`` has the same
        check-then-act window; this is the class of bug §7's
        fault-injection-oriented assertions exist to expose."""
        plan = model_injector("errno").plan_for(
            {"function": "stat", "call": 2}
        )
        result = run_test(coreutils, coreutils.suite[27], plan)
        # mv itself printed no diagnostic and believed it succeeded; only
        # the test script's own assertion (and the invariant) notice.
        assert not any("mv:" in line for line in result.stderr)
        assert result.violated
        assert "data lost" in result.invariant_violations[0]

    def test_no_double_fault_loses_mv_data(self, coreutils):
        """Even rename-EXDEV + a failure inside the copy fallback never
        loses data: abort_copy removes the partial dest but keeps src."""
        runner = TargetRunner(coreutils)
        for second in ("open", "read", "write", "close", "unlink"):
            for call in (1, 2):
                fault = Fault.of(
                    test=29,
                    function_a="rename", call_a=1, errno_a="EXDEV",
                    function_b=second, call_b=call,
                )
                result = runner(fault)
                assert not result.violated, (second, call)

    def test_invariant_catches_a_hypothetically_buggy_mv(self, coreutils):
        """Sanity: the checker isn't vacuous — destroy the data and the
        invariant fires."""
        test = coreutils.suite[21]

        def sabotage(env: Env) -> None:
            test.body(env)
            env.fs.unlink("b")  # simulate a data-losing bug post-move

        bad = SimTestCase(id=21, name=test.name, group=test.group,
                          body=sabotage)
        # run through the target's machinery manually:
        result = run_test(_Sabotaged(coreutils, bad), bad)
        assert result.violated


class _Sabotaged(Target):
    """Wraps coreutils with one replaced test body (for checker sanity)."""

    name = "coreutils"
    version = "8.1-sabotaged"

    def __init__(self, base, test):
        super().__init__()
        self._base = base
        self._test = test

    def build_suite(self):
        return self._base.suite

    def setup(self, env, test):
        self._base.setup(env, test)

    def invariants(self, env, test):
        return self._base.invariants(env, test)
