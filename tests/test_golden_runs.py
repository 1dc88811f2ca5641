"""The golden-run short-circuit is an identity, proven by execution.

``TargetRunner`` answers a scenario from the fault-free ("golden") run
of its test when no fault of the plan can fire.  These tests execute
for real what the runner would not:

* differential, both directions — the runner short-circuits a point
  ⇔ a real ``run_test`` of it comes back ``injected=False``, and every
  short-circuited result ``==`` the executed one field by field and
  encodes to the same checkpoint payload.  Exhaustive over the errno
  space (``max_call=3``) of coreutils, httpd, docstore 0.8/2.0 and
  replkv; a seeded sample of MiniDB's ``max_call=10`` space here, all
  ~240k points when ``AFEX_GOLDEN_EXHAUSTIVE`` is set (the CI
  ``faultmodel-smoke`` step);
* the reach rule counts only calls made while the plan is armed;
* synthesised results alias no mutable state, and compose with a
  ``ResultCache``;
* a warm store moves no digest: the same campaign twice on one engine,
  and a checkpoint-resumed run over warm goldens;
* the ``sim.golden_hits`` counter, the ``golden_hit`` span and the
  ``runner.tests`` accounting identity.
"""

from __future__ import annotations

import functools
import json
import os
import random

import pytest

from repro.core import FitnessGuidedSearch, TargetRunner
from repro.core.cache import ResultCache, result_to_payload
from repro.core.fault import Fault
from repro.injection.models import model_injector, model_space
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.service.engine import CampaignEngine
from repro.sim.process import run_test
from repro.sim.targets import target_by_name
from repro.sim import testsuite

#: tier-1 samples MiniDB's space; CI walks all of it (see module docstring).
MINIDB_SAMPLE = None if os.environ.get("AFEX_GOLDEN_EXHAUSTIVE") else 5000


def payload_text(result) -> str:
    return json.dumps(result_to_payload(result), sort_keys=True)


def differential(target, faults) -> tuple[int, int]:
    """Check every fault both ways; returns (short-circuited, executed)."""
    runner = TargetRunner(target)
    function = target.libc_functions()[0]
    for test in target.suite:  # the explicit no-fault point: one golden each
        runner(Fault.of(test=test.id, function=function, call=0))
    assert runner.golden_stats() == {"goldens": len(target.suite), "hits": 0}
    executed = 0
    # Every function's ``call=0`` point of a test compiles to the same
    # empty plan: the same input to ``run_test``, executed once.
    fault_free: dict = {}
    for fault in faults:
        hits = runner.golden_stats()["hits"]
        result = runner(fault)
        if runner.golden_stats()["hits"] == hits:
            # The rule said reachable, so the runner ran it: it must fire.
            assert result.injected, fault
            executed += 1
            continue
        attributes = fault.as_dict()
        test = target.suite[attributes.pop("test")]
        plan = runner.injector.plan_for(attributes)
        real = None if plan.faults else fault_free.get(test.id)
        if real is None:
            real = run_test(target, test, plan)
            if not plan.faults:
                fault_free[test.id] = real
        assert not real.injected, fault
        assert result == real, fault
        assert payload_text(result) == payload_text(real), fault
    return runner.golden_stats()["hits"], executed


class TestDifferential:
    @pytest.mark.parametrize("name", [
        "coreutils", "httpd", "docstore-0.8", "docstore-2.0", "replkv",
    ])
    def test_every_point_of_the_errno_space(self, name):
        target = target_by_name(name)
        space = model_space(target, "errno", max_call=3)
        short, executed = differential(target, space.enumerate())
        assert short + executed == space.size()
        assert short > 0 and executed > 0

    def test_minidb_errno_space(self, minidb):
        space = model_space(minidb, "errno", max_call=10)
        if MINIDB_SAMPLE is None:
            faults, count = space.enumerate(), space.size()
        else:
            rng = random.Random(19)
            faults = [space.random_fault(rng) for _ in range(MINIDB_SAMPLE)]
            count = MINIDB_SAMPLE
        short, executed = differential(minidb, faults)
        assert short + executed == count
        assert short > 0 and executed > 0


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
        runner = TargetRunner(target)

        def both(call):
            fault = Fault.of(test=1, function="malloc", call=call)
            plan = runner.injector.plan_for({"function": "malloc", "call": call})
            return runner(fault), run_test(target, test, plan)

        assert both(0)[0].call_counts == {"malloc": 3}
        # malloc#1 and #2 happened in setup, before the plan was armed:
        # unreachable, although the golden total (3) says otherwise.
        for call in (1, 2, 1):
            via_runner, real = both(call)
            assert not real.injected and via_runner == real
        via_runner, real = both(3)
        assert real.injected and real.exit_code == 1 and via_runner == real
        # Such totals overstate reach, so this target never gets a golden.
        assert runner.golden_stats() == {"goldens": 0, "hits": 0}


def unreachable_fault(test_id: int = 1) -> Fault:
    # No coreutils test calls malloc 9 times.
    return Fault.of(test=test_id, function="malloc", call=9)


class TestSynthesisedResults:
    def test_no_mutable_state_is_shared(self, coreutils):
        runner = TargetRunner(coreutils)
        first = runner(Fault.of(test=1, function="malloc", call=0))
        pristine = (dict(first.measurements), dict(first.call_counts))
        first.measurements["poked"] = 1.0   # the harvested run's own dicts
        first.call_counts["poked"] = 1
        second = runner(unreachable_fault())
        assert (second.measurements, second.call_counts) == pristine
        second.measurements["poked"] = 2.0
        second.call_counts.clear()
        third = runner(unreachable_fault())
        assert runner.golden_stats() == {"goldens": 1, "hits": 2}
        assert (third.measurements, third.call_counts) == pristine
        assert third.coverage is second.coverage    # immutable: shared
        assert third.plan == runner.injector.plan_for(
            {"function": "malloc", "call": 9})

    def test_cache_hit_wins_and_short_circuits_are_cached(self, coreutils):
        cache = ResultCache()
        runner = TargetRunner(coreutils, cache=cache)
        runner(Fault.of(test=1, function="malloc", call=0))
        synthesised = runner(unreachable_fault())
        assert runner.golden_stats()["hits"] == 1
        assert cache.stats()["misses"] == 2 and len(cache) == 2
        # Stored under its own key like an executed result...
        assert cache.get(runner._cache_key(unreachable_fault(), 0)) \
            == synthesised
        # ...and answered from the cache before the golden is consulted.
        hits = cache.stats()["hits"]
        assert runner(unreachable_fault()) == synthesised
        assert cache.stats()["hits"] == hits + 1
        assert runner.golden_stats()["hits"] == 1

    def test_hook_plans_and_provenance_runners_always_execute(self, replkv):
        composed = TargetRunner(replkv, model_injector("errno+disk"))
        no_fault = dict(test=1, function="malloc", call=0, disk_mode="torn")
        composed(Fault.of(disk_write=0, **no_fault))       # hook-free: golden
        assert composed.golden_stats() == {"goldens": 1, "hits": 0}
        composed(Fault.of(disk_write=6, **no_fault))       # a disk hook
        assert composed.golden_stats()["hits"] == 0
        composed(Fault.of(disk_write=0, **no_fault))
        assert composed.golden_stats()["hits"] == 1

        replaying = TargetRunner(replkv, provenance=True)
        for _ in range(2):
            result = replaying(Fault.of(test=1, function="malloc", call=0))
            assert result.provenance
        assert replaying.golden_stats() == {"goldens": 0, "hits": 0}


@functools.lru_cache(maxsize=None)
def cold_digest(fabric: str) -> str:
    return campaign(fresh_engine(fabric)).digest


def fresh_engine(fabric: str, **kwargs) -> CampaignEngine:
    return CampaignEngine(
        target_by_name("coreutils"), fabric=fabric, workers=2,
        target_factory=functools.partial(target_by_name, "coreutils"),
        **kwargs,
    )


def campaign(engine: CampaignEngine, **kwargs):
    space = model_space(engine.target, "errno", max_call=10)
    return engine.explore(
        space, FitnessGuidedSearch(), iterations=96, seed=7, batch_size=8,
        **kwargs,
    )


class TestDigestsWithWarmGoldens:
    @pytest.mark.parametrize("fabric", ["serial", "threads", "processes"])
    def test_same_campaign_twice_on_one_warm_engine(self, fabric):
        with fresh_engine(fabric) as engine:
            first, second = campaign(engine), campaign(engine)
        assert first.digest == second.digest == cold_digest(fabric)
        if fabric == "processes":
            # Each pool worker owns its runner; the parent cannot see it.
            assert second.golden_stats is None
        else:
            assert second.golden_stats["hits"] > first.golden_stats["hits"]
            assert second.golden_stats["goldens"] > 0

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


class TestObservability:
    def test_counters_and_the_accounting_identity(self, coreutils):
        metrics, cache = MetricsRegistry(), ResultCache()
        runner = TargetRunner(coreutils, cache=cache, metrics=metrics)
        assert metrics.counters()["sim.golden_hits"] == 0   # exported at zero
        runner(Fault.of(test=1, function="malloc", call=0))  # executed
        runner(Fault.of(test=1, function="malloc", call=1))  # executed
        runner(unreachable_fault())                          # golden
        runner(unreachable_fault())                          # cache
        counters = metrics.counters()
        executions = metrics.snapshot()["histograms"][
            "runner.execute_seconds"]["count"]
        assert (counters["runner.tests"], executions,
                counters["sim.golden_hits"], cache.stats()["hits"]) \
            == (4, 2, 1, 1)
        assert runner.golden_stats() == {"goldens": 1, "hits": 1}

    def test_golden_hit_span_replaces_execute(self, coreutils):
        sink = RingBufferSink()
        runner = TargetRunner(coreutils, tracer=Tracer(sinks=[sink]))
        runner(Fault.of(test=1, function="malloc", call=0))
        runner(unreachable_fault())
        spans = [(e["name"], e["attrs"]) for e in sink.events]
        assert spans == [("execute", {"test": 1}), ("golden_hit", {"test": 1})]
