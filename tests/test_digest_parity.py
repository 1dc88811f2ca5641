"""Digest parity: where a campaign runs never moves what it finds.

Drawn :class:`~repro.service.spec.CampaignSpec` campaigns, four
properties:

* on every fabric — ``serial``, ``threads``, ``virtual``, ``processes``
  and a socket fleet of in-thread nodes — one campaign has one digest;
* the impact metrics that read more than the standard one —
  :class:`~repro.core.impact.ResourceLeakImpact` and
  :class:`~repro.core.impact.MeasurementImpact` — score every test of a
  campaign alike on ``serial`` and ``threads``;
* a ``serial`` campaign killed at any journal record and resumed has
  the digest of the uninterrupted campaign;
* so does a ``threads`` campaign, resumed on a fresh engine and on the
  warm one that ran it (whose golden store and report memory already
  hold the whole campaign).
"""

from __future__ import annotations

import dataclasses
import functools

from hypothesis import given, settings, strategies as st

from repro.cluster import ExplorerNode
from repro.core.impact import MeasurementImpact, ResourceLeakImpact
from repro.injection.models import model_injector
from repro.service.spec import SPEC_STRATEGIES, CampaignSpec
from repro.sim.targets import target_by_name

FABRICS = ("serial", "threads", "virtual", "processes", "socket")

specs = st.builds(
    CampaignSpec,
    target=st.sampled_from(["coreutils", "replkv"]),
    fault_model=st.sampled_from(["errno", "errno+disk"]),
    strategy=st.sampled_from(SPEC_STRATEGIES),
    batch_size=st.sampled_from([1, 4, 8]),
    iterations=st.integers(1, 40),
    seed=st.integers(0, 2**31),
    workers=st.just(2),
    nodes=st.just(2),
)


def explore(spec: CampaignSpec, fabric: str, **kwargs):
    """``spec`` on a cold engine of ``fabric``; socket nodes run in
    threads and go when the engine closes."""
    spec = dataclasses.replace(spec, fabric=fabric)

    def launch(net):
        for i in range(spec.nodes):
            ExplorerNode(
                (net.host, net.port),
                functools.partial(target_by_name, spec.target),
                name=f"parity{i}", capacity=2,
                injector_factory=functools.partial(
                    model_injector, spec.fault_model),
            ).run_in_thread()

    with spec.build_engine(on_fabric=launch, node_wait=10) as engine:
        return explore_on(engine, spec, **kwargs)


def explore_on(engine, spec: CampaignSpec, **kwargs):
    """``spec`` on ``engine``, cold or warm."""
    return engine.explore(
        spec.build_space(engine.target), spec.build_strategy(),
        iterations=spec.iterations, seed=spec.seed,
        batch_size=spec.batch_size, **kwargs,
    )


def cut(path, data) -> None:
    """What a kill leaves: the header and a drawn number of the records
    written so far."""
    lines = path.read_bytes().splitlines(keepends=True)
    kept = data.draw(st.integers(1, len(lines) - 1), label="records")
    path.write_bytes(b"".join(lines[:1 + kept]))


class TestDigestParity:
    @settings(max_examples=40, deadline=None)
    @given(spec=specs)
    def test_every_fabric_gives_one_digest(self, spec):
        runs = {fabric: explore(spec, fabric) for fabric in FABRICS}
        assert {len(run.results) for run in runs.values()} == {
            len(runs["threads"].results)}
        assert {fabric: run.digest for fabric, run in runs.items()} == {
            fabric: runs["threads"].digest for fabric in FABRICS}

    @settings(max_examples=20, deadline=None)
    @given(spec=specs)
    def test_leak_and_measurement_impacts_score_alike_everywhere(self, spec):
        """Both read fields the standard metric does not: the leak
        counts and the sensors' measurements."""
        scores = {}
        for fabric in ("serial", "threads"):
            leak, steps = ResourceLeakImpact(), MeasurementImpact("steps.total")
            scores[fabric] = [
                (leak.score(test.result), steps.score(test.result))
                for test in explore(spec, fabric).results
            ]
        assert scores["serial"] == scores["threads"]
        assert all(steps > 0 for _, steps in scores["serial"])

    @settings(max_examples=40, deadline=None)
    @given(spec=specs, every=st.integers(1, 8), data=st.data())
    def test_a_killed_serial_campaign_resumes_to_its_digest(
        self, tmp_path_factory, spec, every, data
    ):
        path = tmp_path_factory.mktemp("journal") / "campaign.ckpt"
        full = explore(spec, "serial", checkpoint_path=path,
                       checkpoint_every=every)
        cut(path, data)
        resumed = explore(spec, "serial", resume_from=path)
        assert resumed.digest == full.digest

    @settings(max_examples=10, deadline=None)
    @given(spec=specs, every=st.integers(1, 8), data=st.data())
    def test_a_killed_threads_campaign_resumes_to_its_digest(
        self, tmp_path_factory, spec, every, data
    ):
        spec = dataclasses.replace(spec, fabric="threads")
        path = tmp_path_factory.mktemp("journal") / "campaign.ckpt"
        with spec.build_engine() as engine:
            full = explore_on(engine, spec, checkpoint_path=path,
                              checkpoint_every=every)
            cut(path, data)
            warm = explore_on(engine, spec, resume_from=path)
        cold = explore(spec, "threads", resume_from=path)
        assert warm.digest == cold.digest == full.digest
