"""Tests for campaign checkpoint/resume (core/checkpoint.py)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ExplorationSession,
    FaultSpace,
    FitnessGuidedSearch,
    IterationBudget,
    RandomSearch,
    TargetRunner,
    standard_impact,
)
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointWriter,
    _Chain,
    _executed_to_payload,
    build_checkpoint,
    history_digest,
    load_checkpoint,
    replay_history,
    save_checkpoint,
    space_fingerprint,
)
from repro.core.cache import canonical_json
from repro.errors import CheckpointError
from repro.sim.targets.coreutils import CoreutilsTarget


@pytest.fixture()
def space(coreutils) -> FaultSpace:
    return FaultSpace.product(
        test=range(1, 30), function=coreutils.libc_functions(),
        call=[0, 1, 2],
    )


def session(coreutils, space, iterations=40, seed=3, batch_size=4,
            strategy_factory=FitnessGuidedSearch, **kwargs):
    return ExplorationSession(
        TargetRunner(coreutils), space, standard_impact(),
        strategy_factory(), IterationBudget(iterations), rng=seed,
        batch_size=batch_size, **kwargs,
    )


def cluster_explorer(space, iterations, batch_size=4, **kwargs):
    """The threads fabric, as `afex run --fabric threads` builds it."""
    from repro.cluster import (
        ClusterExplorer,
        FaultTolerantFabric,
        LocalCluster,
        NodeManager,
    )

    fabric = FaultTolerantFabric(LocalCluster([
        NodeManager(f"n{i}", CoreutilsTarget()) for i in range(3)
    ]))
    return ClusterExplorer(
        fabric, space, standard_impact(), FitnessGuidedSearch(),
        IterationBudget(iterations), rng=8, batch_size=batch_size, **kwargs,
    )


class TestSaveLoad:
    def test_roundtrip(self, coreutils, space, tmp_path):
        results = session(coreutils, space).run()
        import random

        rng = random.Random(9)
        checkpoint = build_checkpoint(list(results), rng, space, 4,
                                      meta={"seed": 3})
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path)
        assert loaded.version == CHECKPOINT_VERSION
        assert loaded.batch_size == 4
        assert loaded.iterations == len(results)
        assert loaded.space == space_fingerprint(space)
        assert loaded.meta["seed"] == 3
        assert loaded.digest() == history_digest(list(results))
        restored = loaded.restore_executed()
        assert [t.fault for t in restored] == [t.fault for t in results]
        assert [t.impact for t in restored] == [t.impact for t in results]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "nope.json")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{{{")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(CheckpointError, match="not an AFEX checkpoint"):
            load_checkpoint(path)

    def test_wrong_version(self, coreutils, space, tmp_path):
        import random

        path = tmp_path / "future.json"
        save_checkpoint(
            path, build_checkpoint([], random.Random(0), space, 1)
        )
        header, _, records = path.read_text().partition("\n")
        payload = json.loads(header)
        payload["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(payload) + "\n" + records)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_malformed_payload(self, tmp_path):
        path = tmp_path / "hollow.json"
        path.write_text(json.dumps(
            {"kind": "afex-checkpoint", "version": CHECKPOINT_VERSION}
        ))
        with pytest.raises(CheckpointError, match="malformed"):
            load_checkpoint(path)


class TestWriterPolicy:
    def test_writes_every_n(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        sess = session(coreutils, space, iterations=40,
                       checkpoint_path=path, checkpoint_every=12)
        sess.run()
        # 40 tests / every-12 → writes at >=12, >=24, >=36, plus the
        # forced final write at 40.
        assert sess.checkpointer.writes == 4
        assert load_checkpoint(path).iterations == 40

    def test_every_zero_only_writes_final(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        sess = session(coreutils, space, iterations=20,
                       checkpoint_path=path, checkpoint_every=0)
        sess.run()
        assert sess.checkpointer.writes == 1
        assert load_checkpoint(path).iterations == 20

    def test_negative_interval_rejected(self, space):
        with pytest.raises(CheckpointError):
            CheckpointWriter("x.json", -1, space, 1)


class TestResume:
    def test_serial_resume_is_byte_identical(self, coreutils, space,
                                             tmp_path):
        path = tmp_path / "run.ckpt.json"
        # Uninterrupted 60-iteration run: the reference trajectory.
        reference = session(coreutils, space, iterations=60).run()

        # "Killed" run: stop at 36, leaving a checkpoint.
        session(coreutils, space, iterations=36,
                checkpoint_path=path, checkpoint_every=12).run()
        checkpoint = load_checkpoint(path)
        assert checkpoint.iterations == 36

        resumed = session(coreutils, space, iterations=60,
                          resume_from=checkpoint).run()
        assert history_digest(list(resumed)) == history_digest(
            list(reference))

    def test_cluster_resume_is_byte_identical(self, coreutils, space,
                                              tmp_path):
        def explorer(iterations, **kwargs):
            return cluster_explorer(space, iterations, batch_size=3, **kwargs)

        path = tmp_path / "cluster.ckpt.json"
        reference = explorer(60).run()
        explorer(30, checkpoint_path=path, checkpoint_every=9).run()
        resumed = explorer(
            60, resume_from=load_checkpoint(path),
            checkpoint_path=path, checkpoint_every=9,
        ).run()
        assert history_digest(list(resumed)) == history_digest(
            list(reference))
        final = load_checkpoint(path)
        assert final.iterations == 60
        assert "fabric_health" in final.meta

    def test_wrong_space_rejected(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        session(coreutils, space, iterations=12, checkpoint_path=path,
                checkpoint_every=6).run()
        other_space = FaultSpace.product(
            test=range(1, 5), function=coreutils.libc_functions(),
            call=[0],
        )
        with pytest.raises(CheckpointError, match="space"):
            session(coreutils, other_space, iterations=12,
                    resume_from=load_checkpoint(path)).run()

    def test_wrong_batch_size_rejected(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        session(coreutils, space, iterations=12, batch_size=4,
                checkpoint_path=path, checkpoint_every=6).run()
        with pytest.raises(CheckpointError, match="batch_size"):
            session(coreutils, space, iterations=24, batch_size=3,
                    resume_from=load_checkpoint(path)).run()

    def test_different_strategy_detected_as_divergence(self, coreutils,
                                                       space, tmp_path):
        # The record must reach past FitnessGuidedSearch's initial
        # random phase (25 proposals) — before that, its trajectory is
        # genuinely identical to RandomSearch's and there is no
        # divergence to detect.
        path = tmp_path / "run.ckpt.json"
        session(coreutils, space, iterations=40,
                checkpoint_path=path, checkpoint_every=10).run()
        with pytest.raises(CheckpointError, match="diverged"):
            session(coreutils, space, iterations=60,
                    strategy_factory=RandomSearch,
                    resume_from=load_checkpoint(path)).run()

    def test_different_seed_detected(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        session(coreutils, space, iterations=12, seed=3,
                checkpoint_path=path, checkpoint_every=6).run()
        with pytest.raises(CheckpointError):
            session(coreutils, space, iterations=24, seed=4,
                    resume_from=load_checkpoint(path)).run()

    def test_replay_returns_count(self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        sess = session(coreutils, space, iterations=20,
                       checkpoint_path=path, checkpoint_every=10)
        sess.run()
        checkpoint = load_checkpoint(path)

        import random

        fresh = session(coreutils, space, iterations=20)
        rng = random.Random(3)
        fresh.rng = rng
        fresh.strategy.bind(space, rng)
        replayed = replay_history(
            checkpoint, fresh.strategy, 4, space, fresh._account, rng=rng,
        )
        assert replayed == 20
        assert len(fresh.executed) == 20


class TestJournal:
    """The version-2 on-disk format: an append-only journal whose every
    record carries the running history digest."""

    @pytest.fixture(params=["serial", "threads"])
    def campaign(self, request, coreutils, space):
        """``run(iterations, **checkpoint options) -> ResultSet`` on the
        serial loop or the threads fabric (their digests differ, so each
        resumes its own journals)."""
        if request.param == "serial":
            return lambda iterations, **options: session(
                coreutils, space, iterations=iterations, **options
            ).run()
        return lambda iterations, **options: cluster_explorer(
            space, iterations, **options
        ).run()

    def test_every_cut_of_the_last_two_records_loads_to_a_boundary(
            self, coreutils, space, tmp_path):
        """Cut a finished journal at *every* byte of its last two
        records: what loads is a history ending on a record boundary
        whose digest is that prefix's.  (Two tests a record and a stub
        RNG keep the records, and so the number of cuts, small.)"""
        from types import SimpleNamespace

        history = list(session(coreutils, space, iterations=8).run())
        path = tmp_path / "run.ckpt.json"
        writer = CheckpointWriter(path, 2, space, 4)
        stub_rng = SimpleNamespace(getstate=lambda: (3, (0,), None))
        for count in (2, 4, 6, 8):
            assert writer.maybe_write(history[:count], stub_rng)
        writer.close()
        data = path.read_bytes()
        lines = data.splitlines(keepends=True)
        assert len(lines) == 1 + 4  # header + a record per 2 tests
        digests = {n: history_digest(history[:n]) for n in (4, 6, 8)}
        last = len(data) - len(lines[-1])
        for offset in range(last - len(lines[-2]), len(data) + 1):
            path.write_bytes(data[:offset])
            loaded = load_checkpoint(path)
            # A record counts once its newline is on disk, not before.
            kept = 8 if offset == len(data) else 6 if offset >= last else 4
            assert loaded.iterations == kept, offset
            assert loaded.digest() == digests[kept], offset

    def test_resume_from_a_torn_journal_reaches_the_same_digest(
            self, campaign, tmp_path):
        path = tmp_path / "run.ckpt.json"
        campaign(24, checkpoint_path=path, checkpoint_every=4)
        data = path.read_bytes()
        reference = history_digest(list(campaign(40)))
        last = len(data) - len(data.splitlines(keepends=True)[-1])
        for cut, kept in (
            (len(data), 24),      # intact
            (len(data) - 1, 20),  # all of the last record but its newline
            (len(data) - 7, 20),  # torn inside the last record
            (last - 1, 16),       # ... and the one before it
        ):
            path.write_bytes(data[:cut])
            checkpoint = load_checkpoint(path)
            assert checkpoint.iterations == kept
            resumed = campaign(
                40, resume_from=checkpoint,
                checkpoint_path=path, checkpoint_every=4,
            )
            assert history_digest(list(resumed)) == reference, cut
            assert load_checkpoint(path).digest() == reference

    def test_a_flipped_byte_in_any_complete_record_is_refused(
            self, coreutils, space, tmp_path):
        """Only a torn *final* line is recoverable: damage inside a
        newline-terminated record raises, naming the record."""
        path = tmp_path / "run.ckpt.json"
        session(coreutils, space, iterations=24,
                checkpoint_path=path, checkpoint_every=4).run()
        lines = path.read_bytes().splitlines(keepends=True)
        for number in (2, len(lines) - 1):  # a middle record, the last
            line = lines[number]
            tests_at = line.index(b'"tests"') + len(b'"tests": [')
            for at in range(tests_at, len(line) - 3, 97):
                damaged = list(lines)
                damaged[number] = (
                    line[:at] + bytes([line[at] ^ 0x01]) + line[at + 1:]
                )
                path.write_bytes(b"".join(damaged))
                with pytest.raises(CheckpointError,
                                   match=f"record {number} is damaged"):
                    load_checkpoint(path)

    def test_resume_refuses_a_journal_with_records_missing(
            self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"
        session(coreutils, space, iterations=24,
                checkpoint_path=path, checkpoint_every=4).run()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2] + lines[3:]))
        with pytest.raises(CheckpointError, match="record 2 is damaged"):
            load_checkpoint(path)

    def test_a_version_1_file_is_refused_naming_its_version(
            self, tmp_path, capsys):
        """Nothing has written the single-object version 1 since the
        journal landed, and nothing reads it; ``afex run --resume``
        says so and exits 2."""
        from repro.cli import main

        path = tmp_path / "old.ckpt.json"
        path.write_text(json.dumps({
            "kind": "afex-checkpoint", "version": 1, "batch_size": 4,
            "space": {"axes": ["call", "function", "test"], "size": 1},
            "executed": [], "rng_state": None, "meta": {},
        }))
        with pytest.raises(CheckpointError, match="has version 1"):
            load_checkpoint(path)
        assert main(["run", "--target", "coreutils", "--iterations", "5",
                     "--resume", str(path)]) == 2
        assert "has version 1" in capsys.readouterr().out

    def test_a_write_costs_the_round_not_the_history(
            self, coreutils, space, tmp_path):
        """Counts, not timings: over 250 tests at every=10 a periodic
        write puts the same order of bytes on disk whether it is the
        first or the twenty-fifth, the journal is written about once in
        total, and the metrics collectors (on the service: a walk of the
        whole store) run for the closing record only."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        collected: list[int] = []
        registry.register_collector(lambda _registry: collected.append(1))
        path = tmp_path / "run.ckpt.json"
        sess = session(coreutils, space, iterations=250, batch_size=5,
                       metrics=registry, checkpoint_path=path,
                       checkpoint_every=10)
        written: list[int] = []
        journal = sess.checkpointer.maybe_write

        def measured(executed, rng, force=False):
            before = path.stat() if path.exists() else None
            wrote = journal(executed, rng, force=force)
            if wrote:
                after = path.stat()
                appended = (
                    before is not None and before.st_ino == after.st_ino
                )
                written.append(
                    after.st_size - before.st_size if appended
                    else after.st_size  # the whole file was replaced
                )
            return wrote

        sess.checkpointer.maybe_write = measured
        sess.run()
        assert sess.checkpointer.writes == 26  # 25 periodic + closing
        periodic = sorted(written[:25])
        assert periodic[-1] <= 1.5 * periodic[12]
        assert sum(written) <= 2 * path.stat().st_size
        assert len(collected) == 1
        closed = load_checkpoint(path)
        assert closed.iterations == 250
        assert closed.meta["metrics"]["counters"]["session.tests"] == 250

    def test_writer_is_closed_however_the_run_ends(
            self, coreutils, space, tmp_path):
        path = tmp_path / "run.ckpt.json"

        def interrupt(executed):
            if executed.index == 17:
                raise KeyboardInterrupt

        sess = session(coreutils, space, iterations=40, on_test=interrupt,
                       checkpoint_path=path, checkpoint_every=4)
        with pytest.raises(KeyboardInterrupt):
            sess.run()
        assert sess.checkpointer._handle.closed
        # What was journaled before the interrupt is a loadable prefix.
        assert load_checkpoint(path).iterations == 16
        finished = session(coreutils, space, iterations=8,
                           checkpoint_path=path, checkpoint_every=4)
        finished.run()
        assert finished.checkpointer._handle.closed


class TestCampaignIntegration:
    def test_campaign_job_resumes_from_path(self, space, tmp_path):
        """A served job's engine (a spec's, on a thread fleet) journals
        and resumes to the digest of the uninterrupted campaign."""
        from repro.service.spec import CampaignSpec

        spec = CampaignSpec(target="coreutils", fabric="threads", workers=3,
                            iterations=30, seed=2, batch_size=3)
        path = tmp_path / "job.ckpt.json"

        def explore(**kwargs):
            with spec.build_engine() as engine:
                return engine.explore(
                    space, spec.build_strategy(), iterations=spec.iterations,
                    seed=spec.seed, batch_size=spec.batch_size, **kwargs,
                )

        reference = explore()
        explore(checkpoint_path=path, checkpoint_every=9)
        resumed = explore(resume_from=path)
        assert resumed.digest == reference.digest
        assert resumed.health is not None
        assert resumed.health.accounted()

    RUN = ["run", "--target", "coreutils", "--seed", "3", "--batch-size", "4"]

    def afex_run(self, capsys, *args) -> tuple[int, str]:
        from repro.cli import main

        code = main(self.RUN + list(args))
        out = capsys.readouterr().out
        digests = [line for line in out.splitlines()
                   if line.startswith("history digest:")]
        return code, digests[0] if digests else out

    @pytest.mark.parametrize("first, then", [
        ("serial", "threads"), ("threads", "serial"),
    ])
    def test_a_journal_resumes_on_the_other_kind_of_fabric(
            self, tmp_path, capsys, first, then):
        """Every fabric records the same history, so a serial journal
        resumed on ``threads`` — and a ``threads`` journal on serial —
        reaches the digest of the uninterrupted campaign."""
        path = str(tmp_path / "ck.jsonl")
        wide = ["--workers", "2", "--iterations"]
        code, _ = self.afex_run(capsys, "--fabric", first, *wide, "40",
                                "--checkpoint", path, "--checkpoint-every",
                                "10")
        assert code == 0
        assert "fabric" not in json.loads(open(path).readline())["meta"]
        code, resumed = self.afex_run(capsys, "--fabric", then, *wide, "80",
                                      "--resume", path)
        assert code == 0
        code, straight = self.afex_run(capsys, "--fabric", then, *wide, "80")
        assert resumed == straight

    def test_a_version_2_journal_is_refused(self, tmp_path, capsys):
        """A version-2 journal holds another record shape; resuming it
        is a checkpoint error naming its version, and ``afex run`` exits
        2."""
        path = tmp_path / "ck.jsonl"
        code, _ = self.afex_run(capsys, "--iterations", "20", "--checkpoint",
                                str(path))
        assert code == 0
        header, _, records = path.read_text().partition("\n")
        payload = json.loads(header)
        payload["version"] = 2
        path.write_text(json.dumps(payload) + "\n" + records)
        with pytest.raises(CheckpointError, match="has version 2"):
            load_checkpoint(path)
        code, out = self.afex_run(capsys, "--iterations", "40", "--resume",
                                  str(path))
        assert code == 2
        assert "checkpoint error" in out and "version 2" in out

    def test_a_threads_journal_resumes_on_processes(self, tmp_path, capsys):
        """A journal moves between cluster fabrics too."""
        path = str(tmp_path / "ck.jsonl")
        wide = ["--workers", "2", "--iterations"]
        code, _ = self.afex_run(capsys, "--fabric", "threads", *wide, "40",
                                "--checkpoint", path, "--checkpoint-every",
                                "10")
        assert code == 0
        code, resumed = self.afex_run(capsys, "--fabric", "processes", *wide,
                                      "80", "--resume", path)
        assert code == 0
        code, straight = self.afex_run(capsys, "--fabric", "threads", *wide,
                                       "80")
        assert resumed == straight


class TestJournalIdentity:
    """A journal resumes on the campaign of the runner identity it
    records, whoever wrote it and in whichever meta shape, and on no
    other: ``afex run`` exits 2, the engine and the service raise
    :class:`CheckpointError`."""

    SPEC = dict(target="replkv", fault_model="errno+disk", seed=3,
                batch_size=4)
    RUN = ["run", "--target", "replkv", "--seed", "3", "--batch-size", "4"]

    def served_journal(self, path) -> None:
        """40 tests journaled under the meta a served job writes."""
        from repro.service.spec import CampaignSpec

        spec = CampaignSpec(iterations=40, **self.SPEC)
        with spec.build_engine() as engine:
            engine.explore(
                spec.build_space(engine.target), spec.build_strategy(),
                iterations=40, seed=3, batch_size=4,
                checkpoint_path=path, checkpoint_every=10,
                checkpoint_meta={"job": "job-1", "tenant": "alice",
                                 "spec": spec.as_dict()},
            )
        meta = json.loads(open(path).readline())["meta"]
        assert set(meta) == {"job", "tenant", "spec", "identity"}
        assert meta["identity"] == "replkv/1.0.0/model:errno+disk"

    def afex_run(self, capsys, *args) -> tuple[int, str]:
        from repro.cli import main

        code = main(self.RUN + list(args))
        return code, capsys.readouterr().out

    def test_a_served_journal_resumes_under_afex_run(self, tmp_path, capsys):
        path = tmp_path / "job-1.ckpt"
        self.served_journal(path)
        model = ["--fault-model", "errno+disk", "--iterations", "80"]
        code, resumed = self.afex_run(capsys, *model, "--resume", str(path))
        assert code == 0, resumed
        code, straight = self.afex_run(capsys, *model)
        assert code == 0

        def digest(out):
            return [line for line in out.splitlines()
                    if line.startswith("history digest:")]

        assert digest(resumed) and digest(resumed) == digest(straight)

    def test_a_journal_of_another_identity_is_refused(
            self, tmp_path, capsys):
        from repro.service.server import CampaignService
        from repro.service.spec import CampaignSpec
        from repro.service.store import ResultStore

        path = tmp_path / "job-1.ckpt"
        self.served_journal(path)
        code, out = self.afex_run(capsys, "--fault-model", "errno",
                                  "--iterations", "80", "--resume", str(path))
        assert code == 2
        assert "checkpoint error" in out and "not comparable" in out

        errno = CampaignSpec(iterations=80, **{**self.SPEC,
                                               "fault_model": "errno"})
        with errno.build_engine() as engine:
            with pytest.raises(CheckpointError, match=r"model:errno\+disk"):
                engine.run(errno, resume_from=path)

        store = ResultStore(tmp_path / "afex.db")
        store.create_job("job-1", "alice", errno.as_dict(),
                         checkpoint=str(path))
        service = CampaignService(store, workers=1)
        try:
            service._run_job(service.queue.pop())
            failed = store.job("job-1")
            assert failed.state == "failed"
            assert "CheckpointError" in failed.error
            assert path.exists()  # a refused journal is left as it was
        finally:
            service.shutdown()
            store.close()

    def test_a_spec_campaign_journals_its_spec(self, tmp_path):
        """``run`` writes ``{"spec": ..., **meta}`` beside the identity,
        and resumes its own journal to the straight digest."""
        from repro.service.spec import CampaignSpec

        path = tmp_path / "ck.jsonl"
        short = CampaignSpec(iterations=40, **self.SPEC)
        full = CampaignSpec(iterations=80, **self.SPEC)
        with short.build_engine() as engine:
            engine.run(short, checkpoint_path=path, checkpoint_every=10,
                       meta={"job": "job-1"})
            straight = engine.run(full)
        meta = json.loads(open(path).readline())["meta"]
        assert meta == {"spec": short.as_dict(), "job": "job-1",
                        "identity": "replkv/1.0.0/model:errno+disk"}
        with full.build_engine() as engine:
            assert engine.run(full, resume_from=path).digest == straight.digest


# -- one canonical text per executed test ------------------------------------

_NUMBERS = st.one_of(
    st.integers(min_value=-5, max_value=10**18),
    st.sampled_from([0.0, -0.0, 1e16, 1e-7, 2.5, float("nan"),
                     float("inf"), float("-inf")]),
)
_TEXT = st.text(max_size=12) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "é中\U0001f600", "\n\t\x00"])
#: attribute values as fault spaces hold them: scalars and (nested) tuples.
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | _TEXT,
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
_STACKS = st.none() | st.lists(_TEXT, min_size=1, max_size=3).map(tuple)


@st.composite
def _executed_tests(draw):
    from repro.core.fault import Fault
    from repro.core.results import ExecutedTest
    from repro.injection import InjectionPlan
    from repro.sim.errnos import Errno
    from repro.sim.libc import ProvenanceRecord
    from repro.sim.process import RunResult

    plan = (InjectionPlan.single("read", draw(st.integers(1, 9)),
                                 Errno.EIO, -1)
            if draw(st.booleans()) else InjectionPlan.none())
    result = RunResult(
        test_id=draw(st.integers(0, 99)),
        test_name=draw(_TEXT),
        plan=plan,
        exit_code=draw(st.integers(-1, 3)),
        crash_kind=draw(st.sampled_from([None, "segfault", "abort", "hang"])),
        crash_message=draw(st.none() | _TEXT),
        crash_stack=draw(_STACKS),
        injection_stack=draw(_STACKS),
        injected=draw(st.booleans()),
        coverage=frozenset(draw(st.lists(_TEXT, max_size=4))),
        steps=draw(st.integers(0, 10**6)),
        stdout=tuple(draw(st.lists(_TEXT, max_size=3))),
        stderr=tuple(draw(st.lists(_TEXT, max_size=2))),
        failure_message=draw(st.none() | _TEXT),
        measurements=draw(st.dictionaries(_TEXT, _NUMBERS, max_size=3)),
        call_counts=draw(st.dictionaries(_TEXT, st.integers(0, 99),
                                         max_size=3)),
        open_fds=draw(st.integers(0, 9)),
        leaked_heap_bytes=draw(st.integers(0, 10**9)),
        invariant_violations=tuple(draw(st.lists(_TEXT, max_size=2))),
        provenance=tuple(
            ProvenanceRecord(seq, "read", seq, "path", resource, seq % 2 == 0)
            for seq, resource in enumerate(
                draw(st.lists(st.none() | _TEXT, max_size=2)), start=1)
        ),
    )
    names = draw(st.lists(_TEXT, max_size=3, unique=True))
    fault = Fault(draw(_TEXT), tuple((n, draw(_VALUES)) for n in names))
    return ExecutedTest(
        index=draw(st.integers(0, 999)), fault=fault, result=result,
        impact=draw(_NUMBERS), fitness=draw(_NUMBERS),
    )


def _reference_text(test) -> str:
    """The canonical dump the once-built text has to equal."""
    return json.dumps(_executed_to_payload(test), sort_keys=True,
                      separators=(",", ":"))


class TestCanonicalText:
    """An executed test is encoded once; that text is the journal
    record, the digest input and (its ``result`` slice) the store row."""

    @settings(max_examples=150)
    @given(_executed_tests())
    def test_the_once_built_text_is_the_canonical_dump(self, test):
        from repro.core.cache import result_to_json, result_to_payload

        text = test.canonical_json
        assert text == _reference_text(test)
        assert test.canonical_json is text  # built once
        assert test.result_json == result_to_json(test.result) == json.dumps(
            result_to_payload(test.result), sort_keys=True,
            separators=(",", ":"))
        assert ("provenance" in json.loads(test.result_json)) == bool(
            test.result.provenance)

    @settings(max_examples=5)
    @given(_executed_tests())
    def test_an_unencodable_attribute_fails_as_the_reference_does(
            self, test):
        """``canonical`` passes a frozenset through, and JSON has none."""
        from repro.core.fault import Fault

        broken = dataclasses.replace(
            test, fault=Fault("", (("blocks", frozenset({"a"})),)))
        with pytest.raises(TypeError):
            _reference_text(broken)
        with pytest.raises(TypeError):
            broken.canonical_json

    @settings(max_examples=40)
    @given(st.lists(_executed_tests(), max_size=6), st.data())
    def test_digest_of_any_prefix_is_the_chain_after_the_same_records(
            self, history, data):
        from repro.core.results import ResultSet

        cut = data.draw(st.integers(0, len(history)))
        chain = _Chain()
        chain.feed(_reference_text(test) for test in history[:cut])
        assert chain.count == cut
        whole = hashlib.sha256(json.dumps(
            [_executed_to_payload(test) for test in history[:cut]],
            sort_keys=True, separators=(",", ":"),
        ).encode()).hexdigest()
        assert history_digest(history[:cut]) == chain.digest() == whole
        assert ResultSet(history[:cut]).digest == whole

    @settings(max_examples=25)
    @given(st.lists(_executed_tests(), min_size=1, max_size=6), st.data())
    def test_a_journal_of_cached_texts_loads_to_an_equal_checkpoint(
            self, history, data):
        """Texts built before the writer sees them (as the digest or the
        store may have) journal to what ``build_checkpoint`` describes."""
        from types import SimpleNamespace

        space = FaultSpace.product(test=range(1, 3), call=[0])
        rng = SimpleNamespace(getstate=lambda: (3, (0, 1), None))
        for test in data.draw(st.lists(st.sampled_from(history))):
            test.canonical_json
        every = data.draw(st.integers(1, 3))
        with tempfile.TemporaryDirectory() as tmp:
            writer = CheckpointWriter(Path(tmp) / "run.ckpt", every, space, 1)
            for count in range(1, len(history) + 1):
                writer.maybe_write(history[:count], rng)
            writer.maybe_write(history, rng, force=True)
            writer.close()
            loaded = load_checkpoint(writer.path)
        expected = build_checkpoint(history, rng, space, 1)
        # NaN != NaN: compare the payloads as their canonical text.
        assert list(map(canonical_json, loaded.executed)) == list(
            map(canonical_json, expected.executed))
        assert loaded.rng_state == expected.rng_state
        assert loaded.digest() == expected.digest() == history_digest(history)
