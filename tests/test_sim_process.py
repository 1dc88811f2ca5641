"""Tests for sim primitives: stack, sync, coverage, and the test runner."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.injection.plan import InjectionPlan
from repro.sim.coverage import Coverage
from repro.sim.crashes import AbortCrash, HangDetected
from repro.sim.errnos import Errno
from repro.sim.process import Env, run_test
from repro.sim.stack import CallStack
from repro.sim.sync import Mutex
from repro.sim.testsuite import Target
from repro.sim.testsuite import TestCase as SimTestCase
from repro.sim.testsuite import TestSuite as SimTestSuite
from repro.errors import TargetError


class TestCallStack:
    def test_snapshot_includes_root(self):
        assert CallStack().snapshot() == ("main",)

    def test_frame_push_pop(self):
        stack = CallStack()
        with stack.frame("a"):
            with stack.frame("b"):
                assert stack.snapshot() == ("main", "a", "b")
        assert stack.snapshot() == ("main",)

    def test_frame_pops_on_exception(self):
        stack = CallStack()
        with pytest.raises(ValueError):
            with stack.frame("a"):
                raise ValueError("boom")
        assert stack.depth == 1

    def test_cannot_pop_root(self):
        with pytest.raises(IndexError):
            CallStack().pop()

    def test_top_and_depth(self):
        stack = CallStack()
        stack.push("x")
        assert stack.top == "x" and stack.depth == 2


class TestMutex:
    def test_lock_unlock(self):
        m = Mutex("m")
        m.lock()
        assert m.locked
        m.unlock()
        assert not m.locked

    def test_double_unlock_aborts(self):
        m = Mutex("m")
        m.lock()
        m.unlock()
        with pytest.raises(AbortCrash) as excinfo:
            m.unlock()
        assert "double unlock" in str(excinfo.value)

    def test_self_deadlock_is_hang(self):
        m = Mutex("m")
        m.lock()
        with pytest.raises(HangDetected):
            m.lock()

    def test_acquisition_count(self):
        m = Mutex("m")
        m.lock(); m.unlock(); m.lock()
        assert m.acquisitions == 2


class TestCoverage:
    def test_hit_and_blocks(self):
        cov = Coverage()
        cov.hit("a")
        cov.hit("a")
        cov.hit("b")
        assert cov.blocks == frozenset({"a", "b"})
        assert len(cov) == 2
        assert "a" in cov

    def test_percent(self):
        universe = frozenset({"a", "b", "c", "d"})
        assert Coverage.percent(frozenset({"a", "b"}), universe) == 50.0
        assert Coverage.percent(frozenset(), frozenset()) == 0.0

    def test_percent_ignores_blocks_outside_universe(self):
        assert Coverage.percent(frozenset({"x"}), frozenset({"a"})) == 0.0


# -- a tiny inline target for run_test semantics ---------------------------

class _TinyTarget(Target):
    name = "tiny"
    version = "0"

    def build_suite(self) -> TestSuite:
        def ok(env: Env) -> None:
            env.cov.hit("tiny.ok")
            env.print("fine")

        def graceful(env: Env) -> None:
            env.exit(3)

        def asserts(env: Env) -> None:
            env.check(False, "always fails")

        def segfaults(env: Env) -> None:
            with env.frame("boom"):
                env.libc.heap.load(0, 0, 1)

        def hangs(env: Env) -> None:
            while True:
                env.libc.getcwd()

        def uses_rng(env: Env) -> None:
            env.print(str(env.rng.random()))

        def fs_error_in_assertion(env: Env) -> None:
            env.fs.read_file("/never-created")

        def raises(env: Env) -> None:
            with env.frame("parse"):
                int("(0")

        bodies = [ok, graceful, asserts, segfaults, hangs, uses_rng,
                  fs_error_in_assertion, raises]
        return SimTestSuite([
            SimTestCase(id=i, name=f"t{i}", group="tiny", body=b)
            for i, b in enumerate(bodies, start=1)
        ])


@pytest.fixture(scope="module")
def tiny() -> _TinyTarget:
    return _TinyTarget()


class TestRunTest:
    def test_pass(self, tiny):
        result = run_test(tiny, tiny.suite[1])
        assert not result.failed
        assert result.exit_code == 0
        assert result.stdout == ("fine",)
        assert "tiny.ok" in result.coverage
        assert result.summary() == "passed"

    def test_graceful_exit_code(self, tiny):
        result = run_test(tiny, tiny.suite[2])
        assert result.failed and result.exit_code == 3
        assert result.crash_kind is None

    def test_assertion_failure(self, tiny):
        result = run_test(tiny, tiny.suite[3])
        assert result.failed
        assert result.failure_message == "always fails"

    def test_segfault_captured(self, tiny):
        result = run_test(tiny, tiny.suite[4])
        assert result.crash_kind == "segfault"
        assert result.crashed
        assert result.exit_code == 139
        assert result.crash_stack == ("main", "boom")

    def test_hang_captured(self, tiny):
        result = run_test(tiny, tiny.suite[5], step_budget=50)
        assert result.crash_kind == "hang"
        assert result.hung and result.failed and not result.crashed

    def test_rng_deterministic_per_trial(self, tiny):
        a = run_test(tiny, tiny.suite[6], trial=0)
        b = run_test(tiny, tiny.suite[6], trial=0)
        c = run_test(tiny, tiny.suite[6], trial=1)
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout

    def test_fs_error_in_assertion_is_test_failure(self, tiny):
        result = run_test(tiny, tiny.suite[7])
        assert result.failed and result.crash_kind is None
        assert "ENOENT" in (result.failure_message or "")

    def test_injection_stack_absent_when_nothing_fires(self, tiny):
        result = run_test(tiny, tiny.suite[1],
                          InjectionPlan.single("read", 5, Errno.EIO, -1))
        assert not result.injected
        assert result.injection_stack is None

    def test_call_counts_reported(self, tiny):
        result = run_test(tiny, tiny.suite[5], step_budget=50)
        assert result.call_counts.get("getcwd", 0) > 0

    def test_runs_are_hermetic(self, tiny):
        first = run_test(tiny, tiny.suite[1])
        second = run_test(tiny, tiny.suite[1])
        assert first.coverage == second.coverage
        assert first.steps == second.steps


#: ``afex run --target httpd --fault-model errno+bitflip --seed 7000``
#: meets this scenario: a flipped bit turns httpd's ``Listen 80`` into
#: ``Listen (0`` and its config parser raises ValueError.
_FLIPPED_LISTEN = {"test": 19, "function": "close", "call": 1,
                   "flip_access": 2, "flip_bit": 5}


class TestProgramExceptions:
    """A Python exception raised by a simulated program is that
    program's crash; raised anywhere else, it is a bug of the harness."""

    def test_an_exception_in_a_target_is_an_abort(self, httpd):
        from repro.core.runner import compile_scenario
        from repro.injection.models import model_injector

        test_id, plan = compile_scenario(
            model_injector("errno+bitflip"), _FLIPPED_LISTEN)
        result = run_test(httpd, httpd.suite[test_id], plan)
        assert result.crash_kind == "exception"
        assert result.crashed and result.failed
        assert result.exit_code == 134
        assert result.crash_message.startswith("ValueError: ")
        assert result.crash_stack[0] == "main"
        assert result.crash_stack[-1] == "make_sock"

    def test_an_exception_outside_the_targets_propagates(self, tiny):
        with pytest.raises(ValueError):
            run_test(tiny, tiny.suite[8])

    def test_the_reported_campaign_completes(self, capsys):
        from repro.cli import main

        assert main(["run", "--target", "httpd", "--fault-model",
                     "errno+bitflip", "--iterations", "250",
                     "--seed", "7000"]) == 0
        out = capsys.readouterr().out
        assert "history digest: " in out
        assert "exception: ValueError" in out

    @settings(max_examples=30)
    @given(
        target=st.sampled_from(["coreutils", "minidb", "httpd",
                                "docstore-0.8", "docstore-2.0", "replkv"]),
        seed=st.integers(0, 10**6),
        iterations=st.integers(1, 60),
    )
    def test_every_target_completes_a_bitflip_campaign(
        self, target, seed, iterations
    ):
        from repro.service.spec import CampaignSpec

        spec = CampaignSpec(target=target, fault_model="errno+bitflip",
                            iterations=iterations, seed=seed)
        with spec.build_engine() as engine:
            run = engine.explore(
                spec.build_space(engine.target), spec.build_strategy(),
                iterations=spec.iterations, seed=spec.seed,
            )
        assert len(run.results) == iterations


class TestTestSuiteValidation:
    def test_ids_must_start_at_one(self):
        with pytest.raises(TargetError):
            SimTestSuite([SimTestCase(id=2, name="x", group="g", body=lambda e: None)])

    def test_ids_must_be_contiguous(self):
        with pytest.raises(TargetError):
            SimTestSuite([
                SimTestCase(id=1, name="a", group="g", body=lambda e: None),
                SimTestCase(id=3, name="b", group="g", body=lambda e: None),
            ])

    def test_empty_suite_rejected(self):
        with pytest.raises(TargetError):
            SimTestSuite([])

    def test_zero_id_rejected(self):
        with pytest.raises(TargetError):
            SimTestCase(id=0, name="x", group="g", body=lambda e: None)

    def test_lookup_unknown_id(self, tiny):
        with pytest.raises(TargetError):
            tiny.suite[99]

    def test_groups_in_order(self, tiny):
        assert tiny.suite.groups == ("tiny",)
        assert len(tiny.suite.in_group("tiny")) == len(tiny.suite)
