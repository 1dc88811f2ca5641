"""Cross-model conformance harness for the fault-model plugin interface.

Every registered :class:`~repro.injection.models.FaultModel` must honor
the same contracts: its declared axes are exactly what its scenarios
carry and what :meth:`compile` consumes, its world hooks leave the
simulated world pristine after disarm, its scenarios survive the JSON
and binary wire codecs plus checkpoint serialization, and its campaigns
digest deterministically — batched exactly like serial.

The errno differential gate at the bottom is the refactor's keystone:
``ModelInjector("errno")`` campaign digests on every bundled target are
frozen at the bytes the pre-plugin direct injector produced (recorded
at the last commit that carried both, where the two agreed).
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    TargetRunner,
    standard_impact,
)
from repro.core.checkpoint import (
    build_checkpoint,
    history_digest,
    load_checkpoint,
    save_checkpoint,
)
from repro.cluster.messages import TestRequest
from repro.cluster.wire import (
    decode_binary_frame,
    encode_report_frame,
    encode_work_frame,
)
from repro.errors import InjectionError
from repro.injection.models import (
    ModelInjector,
    ScenarioPlan,
    canonical_spec,
    compose_models,
    model_by_name,
    model_injector,
    model_space,
    registered_models,
)
from repro.service.engine import CampaignEngine
from repro.sim.coverage import Coverage
from repro.sim.filesystem import SimFilesystem
from repro.sim.libc import SimLibc
from repro.sim.process import Env
from repro.sim.stack import CallStack
from repro.sim.targets import target_by_name
from tests.test_batching import serial_reference_loop
from tests.test_socket_fabric import make_report

ALL_MODELS = registered_models()

#: a firing (non-zero) scenario for each model's own axes.
FIRING_ATTRS = {
    "errno": {"function": "open", "call": 1},
    "disk": {"disk_write": 2, "disk_mode": "corrupt"},
    "net": {"net_op": 1, "net_mode": "partition"},
    "bitflip": {"flip_access": 3, "flip_bit": 5},
}

#: the same axes at their explicit no-fault point.
NOOP_ATTRS = {
    "errno": {"function": "open", "call": 0},
    "disk": {"disk_write": 0, "disk_mode": "torn"},
    "net": {"net_op": 0, "net_mode": "delay"},
    "bitflip": {"flip_access": 0, "flip_bit": 1},
}


def fresh_env() -> Env:
    fs = SimFilesystem()
    stack = CallStack()
    libc = SimLibc(fs, stack)
    return Env(fs, libc, stack, Coverage(), random.Random(0))


def world_state(env: Env) -> tuple:
    """The three world-hook installation points, as one snapshot."""
    return (env.fs.disk_fault, env.libc.net_fault, env.libc.heap.bitflip)


class TestRegistry:
    def test_builtins_registered_in_rank_order(self):
        assert ALL_MODELS == ("errno", "disk", "net", "bitflip")

    def test_unknown_model_rejected(self):
        with pytest.raises(InjectionError, match="no fault model"):
            model_by_name("cosmic-rays")

    def test_spec_canonicalization_is_order_free(self):
        assert canonical_spec("disk+errno") == "errno+disk"
        assert canonical_spec("bitflip+net+errno") == "errno+net+bitflip"

    def test_duplicate_and_empty_specs_rejected(self):
        with pytest.raises(InjectionError, match="duplicate"):
            compose_models("errno+errno")
        with pytest.raises(InjectionError, match="empty"):
            compose_models("")


@pytest.mark.parametrize("name", ALL_MODELS)
class TestAxisContract:
    def test_axes_match_space_and_proposals(self, name, coreutils):
        model = model_by_name(name)
        axes = model.axes(coreutils)
        space = model_space(coreutils, [name])
        assert space.axis_names() == ("test",) + tuple(axes)
        # every proposal carries exactly the declared attributes and
        # compiles without complaint.
        strategy = FitnessGuidedSearch()
        strategy.bind(space, random.Random(5))
        for fault in strategy.propose_batch(10):
            attrs = dict(fault.attributes)
            assert set(attrs) == {"test"} | set(axes)
            model.compile(attrs)  # must not raise

    def test_firing_scenario_produces_machinery(self, name, coreutils):
        model = model_by_name(name)
        faults, hooks = model.compile(dict(FIRING_ATTRS[name]))
        assert faults or hooks

    def test_noop_point_is_explicit(self, name, coreutils):
        model = model_by_name(name)
        assert model.compile(dict(NOOP_ATTRS[name])) == ((), ())

    def test_missing_own_axis_is_an_error(self, name, coreutils):
        model = model_by_name(name)
        with pytest.raises(InjectionError):
            model.compile({})


@pytest.mark.parametrize("name", [n for n in ALL_MODELS if n != "errno"])
class TestArmDisarm:
    def test_arm_installs_and_disarm_restores(self, name):
        model = model_by_name(name)
        _faults, hooks = model.compile(dict(FIRING_ATTRS[name]))
        assert hooks
        env = fresh_env()
        assert world_state(env) == (None, None, None)
        for hook in hooks:
            hook.arm(env)
        assert any(state is not None for state in world_state(env))
        for hook in hooks:
            hook.disarm(env)
        assert world_state(env) == (None, None, None)

    def test_hooks_are_reusable_across_runs(self, name):
        # Plans are cached and replayed; per-run state must live on the
        # world, not the hook.
        model = model_by_name(name)
        _faults, hooks = model.compile(dict(FIRING_ATTRS[name]))
        for _ in range(2):
            env = fresh_env()
            for hook in hooks:
                hook.arm(env)
            for hook in hooks:
                hook.disarm(env)
            assert world_state(env) == (None, None, None)


class TestComposition:
    def test_injector_merges_all_models(self):
        injector = ModelInjector("errno+disk+net+bitflip")
        attrs = {"test": 1}
        for name in ALL_MODELS:
            attrs.update(FIRING_ATTRS[name])
        plan = injector.plan_for(attrs)
        assert isinstance(plan, ScenarioPlan)
        assert len(plan.faults) == 1  # errno contributes the atomic fault
        assert len(plan.hooks) == 3  # one world hook per world model

    def test_composition_order_is_canonical(self):
        a = ModelInjector("disk+errno")
        b = ModelInjector("errno+disk")
        assert a.spec == b.spec == "errno+disk"
        attrs = {"test": 1, **FIRING_ATTRS["errno"], **FIRING_ATTRS["disk"]}
        assert a.plan_for(attrs) == b.plan_for(attrs)

    def test_duplicate_axis_rejected(self, coreutils):
        class Impostor(type(model_by_name("disk"))):
            name = "impostor"
            rank = 99

        with pytest.raises(InjectionError, match="more than one model"):
            model_space(coreutils, [model_by_name("disk"), Impostor()])

    def test_model_injector_factory_matches_constructor(self):
        assert model_injector("net+disk").name == ModelInjector("disk+net").name


def scenario_for(name: str) -> dict[str, object]:
    return {"test": 3, **FIRING_ATTRS[name]}


def payload_of(frame: bytes) -> bytes:
    """Strip the 4-byte length prefix ``_framed_binary`` prepends."""
    return frame[4:]


@pytest.mark.parametrize("name", ALL_MODELS)
class TestWireRoundTrip:
    def test_binary_v2_work_round_trip(self, name):
        requests = [
            TestRequest(request_id=i, subspace="", scenario=scenario_for(name))
            for i in range(3)
        ]
        frame = encode_work_frame(requests)
        decoded = decode_binary_frame(payload_of(frame))
        assert decoded["type"] == "work"
        assert decoded["requests"] == requests

    def test_binary_report_round_trip(self, name):
        report = make_report(
            9, test_id=56, crash_kind=None, exit_code=1,
            coverage=frozenset({"frame.replkv_put", "replkv.put.committed"}),
            injection_stack=("replkv_put",), injected=True, steps=120,
            measurements={}, cost=0.0,
            invariant_violations=(f"{name}: acknowledged write lost",),
        )
        decoded = decode_binary_frame(
            payload_of(encode_report_frame([report], slots=2))
        )
        assert decoded["type"] == "report_batch"
        assert decoded["slots"] == 2
        assert decoded["reports"] == [report]


def run_campaign(target, spec: str, space: FaultSpace, seed: int = 42,
                 iterations: int = 40):
    session = ExplorationSession(
        runner=TargetRunner(target, model_injector(spec)),
        space=space,
        metric=standard_impact(),
        strategy=FitnessGuidedSearch(),
        target=IterationBudget(iterations),
        rng=seed,
    )
    return list(session.run())


def tiny_space(target, spec: str) -> FaultSpace:
    space = model_space(target, compose_models(spec))
    return space.restrict_axis("test", range(1, min(9, len(target.suite))))


@pytest.mark.parametrize("name", ALL_MODELS)
class TestCampaignDeterminism:
    def test_digest_stable_across_runs(self, name, coreutils):
        space = tiny_space(coreutils, name)
        first = run_campaign(coreutils, name, space)
        second = run_campaign(coreutils, name, space)
        assert history_digest(first) == history_digest(second)

    def test_checkpoint_round_trip(self, name, coreutils, tmp_path):
        space = tiny_space(coreutils, name)
        executed = run_campaign(coreutils, name, space, iterations=12)
        checkpoint = build_checkpoint(
            executed, random.Random(1), space, batch_size=1,
            meta={"fault_model": name},
        )
        path = save_checkpoint(tmp_path / "model.ckpt", checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.meta["fault_model"] == name
        assert loaded.digest() == history_digest(executed)
        restored = loaded.restore_executed()
        assert [test.fault for test in restored] == [
            test.fault for test in executed
        ]

    def test_batched_equals_serial(self, name, coreutils):
        space = tiny_space(coreutils, name)
        serial = serial_reference_loop(
            TargetRunner(coreutils, model_injector(name)),
            space,
            standard_impact(),
            FitnessGuidedSearch(),
            IterationBudget(30),
            random.Random(42),
        )
        session = ExplorationSession(
            runner=TargetRunner(coreutils, model_injector(name)),
            space=space,
            metric=standard_impact(),
            strategy=FitnessGuidedSearch(),
            target=IterationBudget(30),
            rng=42,
            batch_size=1,
        )
        assert history_digest(list(session.run())) == history_digest(
            list(serial)
        )


#: history digests of the 60-test seed-42 campaigns below, on every
#: fabric (the direct libfi injector agreed with the errno model on
#: every one while it existed).
FROZEN_ERRNO_DIGESTS = {
    "coreutils":
        "b8202d62a90197d752845bd20f50b584fbd5dec885bb87f30ab6c81d7a19e34c",
    "minidb":
        "5f2f1eadb2da3aa177cde914c567f456f5497eb25f1e2898b95391fc2fbce6d2",
    "httpd":
        "11f2a4a47670b91fdf7b0a54e802036cc451b39ba8db2eea1967501e3f8269d1",
    "docstore":
        "43ab343f86c7cdba25773935fb48825c89918b1650c1664b123ca2afbda773f4",
}


class TestErrnoDifferentialGate:
    """The keystone: errno-behind-the-plugin-interface is byte-identical
    to the historical direct injector on every bundled target."""

    @pytest.mark.parametrize("target_name", list(FROZEN_ERRNO_DIGESTS))
    def test_model_errno_digest_matches_libfi(self, target_name):
        target = target_by_name(target_name)
        space = FaultSpace.product(
            test=range(1, min(30, len(target.suite) + 1)),
            function=target.libc_functions(),
            call=range(0, 3),
        )
        session = ExplorationSession(
            runner=TargetRunner(target, model_injector("errno")),
            space=space,
            metric=standard_impact(),
            strategy=FitnessGuidedSearch(),
            target=IterationBudget(60),
            rng=42,
        )
        assert (history_digest(list(session.run()))
                == FROZEN_ERRNO_DIGESTS[target_name])
        with CampaignEngine(target, fabric="threads", workers=2) as engine:
            threads = engine.explore(space, FitnessGuidedSearch(),
                                     iterations=60, seed=42, batch_size=1)
        assert threads.digest == FROZEN_ERRNO_DIGESTS[target_name]

    def test_default_space_unchanged_for_errno(self, coreutils):
        legacy = FaultSpace.product(
            test=range(1, len(coreutils.suite) + 1),
            function=coreutils.libc_functions(),
            call=range(0, 3),
        )
        modeled = model_space(coreutils, "errno")
        assert modeled.axis_names() == legacy.axis_names()
        assert modeled.size() == legacy.size()
