"""One-command crash replay: provenance capture, crash ids, divergence.

The contract under test (ISSUE 10's tentpole):

* provenance capture is strictly opt-in — runs without it produce
  byte-identical payloads (and therefore campaign digests) to a build
  that never had the feature;
* a crash id resolved against any artifact that recorded it — SQLite
  store, checkpoint, report document — deterministically re-executes to
  the recorded outcome with zero divergence, and the replay explains
  the failure at call level ("fault at write call #1 on ...");
* provenance rows survive every serialization boundary: result cache
  payloads, ``ResultSet`` JSON, and the wire codec;
* generated §6.3 replay scripts reproduce the stored outcome when
  actually executed.
"""

from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.fault import Fault
from repro.core.results import ExecutedTest, ResultSet
from repro.core.runner import TargetRunner, injection_identity, record
from repro.core.cache import result_from_payload, result_to_payload
from repro.core.checkpoint import build_checkpoint, save_checkpoint
from repro.errors import ReplayError
from repro.injection.models import ModelInjector, model_injector, model_space
from repro.replay import (
    ReplaySource,
    crash_id_of,
    explain,
    format_outcome,
    replay,
    replay_source,
    resolve_crash_id,
    result_digest,
)
from repro.service.documents import campaign_document
from repro.service.store import ResultStore
from repro.sim.libc import ProvenanceRecord
from repro.sim.process import run_test

REPO = Path(__file__).resolve().parent.parent

#: the planted WAL-truncation bug (Bug A): restart-000 under a silent
#: corrupt write of the first WAL append loses acknowledged data.
DISK_FAULT = Fault(
    "replkv", (("test", 56), ("disk_write", 1), ("disk_mode", "corrupt"))
)
#: a plain atomic-fault scenario that fails: first write errno fault.
ERRNO_FAULT = Fault("replkv", (("test", 56), ("function", "write"), ("call", 1)))


def recorded(result):
    """What a campaign records of the full result ``result``."""
    return record(result)


@pytest.fixture(scope="module")
def disk_executed(replkv):
    """The planted-bug execution, recorded provenance-off (the
    exploration path) — exactly what campaigns archive."""
    runner = TargetRunner(replkv, model_injector("disk"))
    result = recorded(runner(DISK_FAULT))
    assert result.failed and result.violated
    return ExecutedTest(0, DISK_FAULT, result, 5.0, 5.0)


@pytest.fixture(scope="module")
def errno_executed(replkv):
    runner = TargetRunner(replkv, model_injector("errno"))
    result = recorded(runner(ERRNO_FAULT))
    assert result.failed
    return ExecutedTest(1, ERRNO_FAULT, result, 3.0, 3.0)


def _crash_id(replkv, fault: Fault, fault_model: str) -> str:
    return crash_id_of(
        replkv.name, replkv.version, fault_model, fault.subspace,
        fault.attributes,
    )


def _seeded_store(tmp_path, replkv, executed, fault_model: str) -> ResultStore:
    store = ResultStore(tmp_path / "afex.db")
    store.create_job("j1", "tester", {"target": replkv.name})
    store.record_campaign(
        "j1", ResultSet([executed]),
        target_id=f"{replkv.name}/{replkv.version}/{fault_model}",
        fault_model=fault_model,
    )
    return store


# -- provenance capture -------------------------------------------------------


class TestProvenanceCapture:
    def test_off_by_default(self, replkv):
        result = run_test(replkv, replkv.suite[1])
        assert result.provenance == ()

    def test_records_every_call_when_enabled(self, replkv):
        result = run_test(replkv, replkv.suite[1], provenance=True)
        assert result.provenance
        assert len(result.provenance) == result.steps
        seqs = [record.seq for record in result.provenance]
        assert seqs == sorted(seqs)
        for record in result.provenance:
            assert isinstance(record, ProvenanceRecord)
            assert record.call_number >= 1

    def test_atomic_fault_is_marked_injected(self, replkv):
        plan = ModelInjector("errno").plan_for(dict(ERRNO_FAULT.attributes))
        result = run_test(replkv, replkv.suite[56], plan, provenance=True)
        fired = [r for r in result.provenance if r.injected]
        assert fired, "the errno fault fired but no record is marked"
        assert fired[0].function == "write"
        assert fired[0].call_number == 1

    def test_disk_hook_is_marked_injected(self, replkv):
        """World hooks fire inside the FS layer; the write that the
        armed disk state transformed must still be attributed."""
        plan = ModelInjector("disk").plan_for(dict(DISK_FAULT.attributes))
        result = run_test(replkv, replkv.suite[56], plan, provenance=True)
        fired = [r for r in result.provenance if r.injected]
        assert fired
        assert fired[0].function == "write"
        assert fired[0].resource and "wal" in fired[0].resource

    def test_explain_names_call_and_resource(self, replkv):
        plan = ModelInjector("disk").plan_for(dict(DISK_FAULT.attributes))
        result = run_test(replkv, replkv.suite[56], plan, provenance=True)
        text = explain(result)
        assert text.startswith("fault at write call #1 on ")
        assert "propagated to" in text

    def test_clean_run_explanation(self, replkv):
        result = run_test(replkv, replkv.suite[1], provenance=True)
        assert explain(result).startswith("no injection fired")


# -- digest neutrality and serialization round trips --------------------------


class TestDigestNeutrality:
    """Provenance-off payloads are byte-identical to pre-feature ones."""

    def test_payload_has_no_provenance_key_when_off(self, replkv):
        result = run_test(replkv, replkv.suite[1])
        assert "provenance" not in result_to_payload(result)

    def test_payload_identical_modulo_provenance(self, replkv):
        plan = ModelInjector("disk").plan_for(dict(DISK_FAULT.attributes))
        off = result_to_payload(run_test(replkv, replkv.suite[56], plan))
        on = result_to_payload(
            run_test(replkv, replkv.suite[56], plan, provenance=True)
        )
        assert on.pop("provenance")
        assert on == off

    def test_result_set_json_omits_empty_provenance(self, disk_executed):
        data = json.loads(ResultSet([disk_executed]).to_json())
        assert "provenance" not in data["tests"][0]["result"]

    def test_cache_payload_round_trip(self, replkv):
        plan = ModelInjector("disk").plan_for(dict(DISK_FAULT.attributes))
        result = run_test(replkv, replkv.suite[56], plan, provenance=True)
        back = result_from_payload(result_to_payload(result))
        assert back.provenance == result.provenance
        assert all(
            isinstance(r, ProvenanceRecord) for r in back.provenance
        )

    def test_result_set_json_round_trip(self, replkv):
        plan = ModelInjector("disk").plan_for(dict(DISK_FAULT.attributes))
        result = run_test(replkv, replkv.suite[56], plan, provenance=True)
        executed = ExecutedTest(0, DISK_FAULT, result, 1.0, 1.0)
        back = ResultSet.from_json(ResultSet([executed]).to_json())
        assert back[0].result.provenance == result.provenance

    def test_wire_binary_round_trip(self):
        """Only replay captures provenance, on its own runner: the wire
        carries none, and refuses a record that holds some."""
        from repro.cluster.wire import WireError, encode_report_frame

        with pytest.raises(WireError, match="provenance"):
            encode_report_frame([_report_with_provenance()])

    def test_wire_binary_no_provenance_no_flag(self):
        from repro.cluster.wire import (
            decode_binary_frame,
            encode_report_frame,
        )

        report = _report_with_provenance(provenance=())
        frame = encode_report_frame([report])
        decoded = decode_binary_frame(frame[4:])["reports"][0]
        assert decoded == report and decoded.result.provenance == ()


_PROVENANCE_ROWS = (
    (1, "open", 1, "path", "/wal.log", False),
    (2, "write", 1, "fd", "/wal.log", True),
    (3, "close", 1, "fd", None, False),
)


def _report_with_provenance(provenance=_PROVENANCE_ROWS):
    from repro.cluster.messages import TestReport
    from repro.core.runner import NO_PLAN
    from repro.sim.process import RunResult

    return TestReport(request_id=7, result=RunResult(
        test_id=3, test_name="", plan=NO_PLAN, exit_code=1,
        crash_kind=None, crash_message=None, crash_stack=None,
        injection_stack=("main", "write"), injected=True,
        coverage=frozenset({"a", "b"}), steps=12,
        provenance=tuple(map(ProvenanceRecord._make, provenance)),
    ))


# -- injection_identity world-hook fallback (satellite bugfix) ---------------


class TestInjectionIdentityFallback:
    def test_hooks_only_plan_falls_back_to_hook_label(self, replkv):
        """A fired injection whose function has no matching atomic
        fault must be labelled with the world hook's identity, not
        ``none`` (the metric-series mislabelling bug)."""
        from dataclasses import replace

        plan = ModelInjector("disk").plan_for(dict(DISK_FAULT.attributes))
        assert not plan.faults and plan.hooks
        result = run_test(replkv, replkv.suite[56], plan)
        # hooks fire in the FS layer, so the run itself records no
        # injection stack; model one arriving over the wire (a worker
        # that attributed the hook) to pin the fallback.
        result = replace(
            result, injected=True, injection_stack=("leader_put", "write")
        )
        function, label = injection_identity(result)
        assert function == "write"
        assert label == "disk:corrupt"

    def test_atomic_fault_still_wins(self, replkv):
        plan = ModelInjector("errno").plan_for(dict(ERRNO_FAULT.attributes))
        result = run_test(replkv, replkv.suite[56], plan)
        function, label = injection_identity(result)
        assert function == "write"
        assert label and label != "disk:corrupt"  # the errno name


# -- crash-id resolution ------------------------------------------------------


class TestCrashIdResolution:
    def test_store_resolution_full_and_prefix(
        self, tmp_path, replkv, disk_executed
    ):
        store = _seeded_store(tmp_path, replkv, disk_executed, "disk")
        crash_id = _crash_id(replkv, DISK_FAULT, "disk")
        source = resolve_crash_id(crash_id, store=store)
        assert source.source == "store"
        assert source.fault_model == "disk"
        assert source.attributes == DISK_FAULT.attributes
        short = resolve_crash_id(crash_id[:10], store=store)
        assert short.crash_id == crash_id

    def test_checkpoint_resolution_both_meta_shapes(
        self, tmp_path, replkv, disk_executed
    ):
        space = model_space(replkv, "disk")
        crash_id = _crash_id(replkv, DISK_FAULT, "disk")
        for name, meta in (
            ("cli.ckpt", {"target": "replkv", "fault_model": "disk",
                          "seed": 1}),
            ("svc.ckpt", {"job": "j1", "tenant": "t",
                          "spec": {"target": "replkv",
                                   "fault_model": "disk"}}),
        ):
            path = tmp_path / name
            save_checkpoint(path, build_checkpoint(
                [disk_executed], random.Random(0), space, 25, meta=meta
            ))
            source = resolve_crash_id(crash_id, checkpoint=path)
            assert source.source == "checkpoint"
            assert source.recorded_payload is not None

    def test_report_document_resolution(self, tmp_path, replkv, disk_executed):
        document = campaign_document(
            ResultSet([disk_executed]),
            campaign={"target": "replkv", "fault_model": "disk"},
            elapsed_seconds=1.0,
        )
        crash_id = _crash_id(replkv, DISK_FAULT, "disk")
        assert document["top"][0]["crash_id"] == crash_id
        path = tmp_path / "report.json"
        path.write_text(json.dumps(document))
        source = resolve_crash_id(crash_id[:12], report=path)
        assert source.source == "report"
        assert source.recorded_outcome["failed"] is True

    def test_not_found_lists_tried_artifacts(
        self, tmp_path, replkv, disk_executed
    ):
        store = _seeded_store(tmp_path, replkv, disk_executed, "disk")
        with pytest.raises(ReplayError, match="not found"):
            resolve_crash_id("f" * 64, store=store)

    def test_rejects_non_hex_and_artifactless_lookups(self):
        with pytest.raises(ReplayError, match="hex"):
            resolve_crash_id("not-a-digest")
        with pytest.raises(ReplayError, match="no artifact"):
            resolve_crash_id("abcd")

    def test_ambiguous_prefix_is_an_error(self, tmp_path, replkv, disk_executed):
        """17 distinct scenarios guarantee two ids share a first hex
        char (pigeonhole); that one-char prefix must not resolve."""
        faults = [
            Fault("replkv", (("test", 56), ("disk_write", w),
                             ("disk_mode", m)))
            for w in range(1, 7) for m in ("torn", "corrupt")
        ] + [
            Fault("replkv", (("test", t), ("disk_write", 1),
                             ("disk_mode", "torn")))
            for t in range(1, 6)
        ]
        executed = [
            ExecutedTest(i, fault, disk_executed.result, 1.0, 1.0)
            for i, fault in enumerate(faults)
        ]
        store = ResultStore(tmp_path / "many.db")
        store.create_job("j1", "t", {})
        store.record_campaign(
            "j1", ResultSet(executed),
            target_id=f"replkv/{replkv.version}/disk", fault_model="disk",
        )
        ids = [_crash_id(replkv, fault, "disk") for fault in faults]
        first_chars = [i[0] for i in ids]
        shared = next(c for c in first_chars if first_chars.count(c) > 1)
        with pytest.raises(ReplayError, match="ambiguous"):
            resolve_crash_id(shared, store=store)


# -- replay: zero divergence from every artifact ------------------------------


class TestReplayZeroDivergence:
    def test_from_store(self, tmp_path, replkv, disk_executed):
        store = _seeded_store(tmp_path, replkv, disk_executed, "disk")
        outcome = replay(_crash_id(replkv, DISK_FAULT, "disk"), store=store)
        assert outcome.matches, outcome.divergences
        assert outcome.explanation.startswith("fault at write call #1")
        assert "REPRODUCED" in format_outcome(outcome)

    def test_from_checkpoint(self, tmp_path, replkv, disk_executed):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, build_checkpoint(
            [disk_executed], random.Random(0), model_space(replkv, "disk"),
            25, meta={"target": "replkv", "fault_model": "disk"},
        ))
        outcome = replay(_crash_id(replkv, DISK_FAULT, "disk"), checkpoint=path)
        assert outcome.matches, outcome.divergences

    def test_from_report_document(self, tmp_path, replkv, disk_executed):
        document = campaign_document(
            ResultSet([disk_executed]),
            campaign={"target": "replkv", "fault_model": "disk"},
            elapsed_seconds=1.0,
        )
        path = tmp_path / "r.json"
        path.write_text(json.dumps(document))
        outcome = replay(
            _crash_id(replkv, DISK_FAULT, "disk"), report=path
        )
        assert outcome.matches, outcome.divergences

    def test_all_sources_agree_on_result_digest(
        self, tmp_path, replkv, disk_executed
    ):
        crash_id = _crash_id(replkv, DISK_FAULT, "disk")
        store = _seeded_store(tmp_path, replkv, disk_executed, "disk")
        ckpt = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, build_checkpoint(
            [disk_executed], random.Random(0), model_space(replkv, "disk"),
            25, meta={"target": "replkv", "fault_model": "disk"},
        ))
        digests = {
            result_digest(replay(crash_id, store=store).result),
            result_digest(replay(crash_id, checkpoint=ckpt).result),
        }
        assert len(digests) == 1

    def test_from_a_store_row_holding_a_full_result(self, tmp_path, replkv):
        """A row written before every path kept one record holds the
        runner's full result; it replays against the full result."""
        full = TargetRunner(replkv, model_injector("disk"))(DISK_FAULT)
        store = _seeded_store(
            tmp_path, replkv, ExecutedTest(0, DISK_FAULT, full, 5.0, 5.0),
            "disk")
        outcome = replay(_crash_id(replkv, DISK_FAULT, "disk"), store=store)
        assert outcome.matches, outcome.divergences

    def test_divergence_when_record_was_doctored(
        self, tmp_path, replkv, disk_executed
    ):
        """A record that disagrees with the deterministic re-execution
        must surface as named field divergences, not a silent pass."""
        from dataclasses import replace

        doctored = replace(disk_executed.result, exit_code=42)
        store = _seeded_store(
            tmp_path, replkv,
            ExecutedTest(0, DISK_FAULT, doctored, 5.0, 5.0), "disk",
        )
        digest = store.resolve_digest("")[0]
        outcome = replay(digest, store=store)
        assert not outcome.matches
        assert any(key == "exit_code" for key, _, _ in outcome.divergences)
        assert "DIVERGED" in format_outcome(outcome)

    def test_version_mismatch_refuses_to_compare(self, replkv):
        source = ReplaySource(
            crash_id="ab" * 32, target_name="replkv",
            target_version="0.0-stale", fault_model="disk",
            subspace="replkv", attributes=DISK_FAULT.attributes,
            source="store",
        )
        with pytest.raises(ReplayError, match="not comparable"):
            replay_source(source)

    def test_service_replay_route(self, tmp_path, replkv, disk_executed):
        from repro.service.server import CampaignService

        store = _seeded_store(tmp_path, replkv, disk_executed, "disk")
        service = CampaignService(store, workers=1, spawn_nodes=False)
        try:
            payload = service.replay_result(
                _crash_id(replkv, DISK_FAULT, "disk")[:16]
            )
        finally:
            service.shutdown()
        assert payload["matches"] is True
        assert payload["source"] == "store"
        assert payload["result_digest"] == result_digest(
            replay_source(resolve_crash_id(
                _crash_id(replkv, DISK_FAULT, "disk"), store=store
            ))
        )


# -- generated replay scripts (§6.3) -----------------------------------------


class TestReplayReadsTheStoreReadOnly:
    """``afex replay --store`` opens the store as ``afex run --cache``
    does: neither the file nor its directory changes, whatever it is."""

    @staticmethod
    def replay_cli(capsys, crash_id: str, store) -> tuple[int, str]:
        from repro.cli import main

        code = main(["replay", crash_id, "--store", str(store)])
        captured = capsys.readouterr()
        return code, captured.out + captured.err

    def test_a_store_is_only_read(self, tmp_path, capsys, replkv,
                                  disk_executed):
        _seeded_store(tmp_path, replkv, disk_executed, "disk").close()
        store = tmp_path / "afex.db"
        written, beside = store.read_bytes(), sorted(tmp_path.iterdir())
        code, out = self.replay_cli(
            capsys, _crash_id(replkv, DISK_FAULT, "disk"), store)
        assert code == 0 and "REPRODUCED" in out
        assert store.read_bytes() == written
        assert sorted(tmp_path.iterdir()) == beside

    def test_an_sqlite_file_that_is_no_store_exits_2(self, tmp_path, capsys):
        import sqlite3

        other = tmp_path / "other.db"
        with sqlite3.connect(other) as conn:
            conn.execute("CREATE TABLE notes (text TEXT)")
        conn.close()
        written, beside = other.read_bytes(), sorted(tmp_path.iterdir())
        code, out = self.replay_cli(capsys, "05c42f44", other)
        assert code == 2 and "no results table" in out
        assert "Traceback" not in out
        assert other.read_bytes() == written
        assert sorted(tmp_path.iterdir()) == beside

    def test_a_damaged_store_exits_2(self, tmp_path, capsys):
        damaged = tmp_path / "damaged.db"
        damaged.write_bytes(b"SQLite format 3\x00" + bytes(range(256)) * 16)
        written, beside = damaged.read_bytes(), sorted(tmp_path.iterdir())
        code, out = self.replay_cli(capsys, "05c42f44", damaged)
        assert code == 2 and "file is not a database" in out
        assert "Traceback" not in out
        assert damaged.read_bytes() == written
        assert sorted(tmp_path.iterdir()) == beside


class TestReplayScriptEndToEnd:
    def test_script_without_crash_id_is_unchanged(self, errno_executed):
        script = ResultSet([errno_executed]).replay_script(
            errno_executed, "replkv"
        )
        assert "Crash id" not in script
        assert "afex replay" not in script

    def test_script_embeds_crash_id(self, replkv, errno_executed):
        crash_id = _crash_id(replkv, ERRNO_FAULT, "errno")
        script = ResultSet([errno_executed]).replay_script(
            errno_executed, "replkv", crash_id=crash_id
        )
        assert f"Crash id:  {crash_id}" in script
        assert f"afex replay {crash_id}" in script

    def test_default_runner_script_id_resolves_through_afex_replay(
        self, tmp_path, replkv, errno_executed, capsys
    ):
        """A report built on the default runner (what ``afex report``
        re-executes on) prints the id checkpoints and the store file
        the result under, so ``afex replay <id from the script>`` finds
        it — not an id computed under a second injector's name."""
        from repro.cli import main
        from repro.quality import build_report

        report = build_report(
            ResultSet([errno_executed]), TargetRunner(replkv), "replkv",
            precision_trials=2,
        )
        (script,) = report.replay_scripts.values()
        script_id = script.split("Crash id:  ")[1].split()[0]
        assert script_id == _crash_id(replkv, ERRNO_FAULT, "errno")
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, build_checkpoint(
            [errno_executed], random.Random(0), model_space(replkv, "errno"),
            25, meta={"target": "replkv", "fault_model": "errno"},
        ))
        assert main(["replay", script_id, "--checkpoint", str(path)]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_executed_script_reproduces_stored_digest(
        self, tmp_path, replkv, errno_executed
    ):
        """The satellite gate: run one generated script end-to-end and
        compare the reproduced result digest with the stored one."""
        crash_id = _crash_id(replkv, ERRNO_FAULT, "errno")
        script = ResultSet([errno_executed]).replay_script(
            errno_executed, "replkv", crash_id=crash_id
        )
        path = tmp_path / "replay_00001.py"
        path.write_text(script)

        # as a subprocess, the way §6.3 hands scripts to developers...
        proc = subprocess.run(
            [sys.executable, str(path)], capture_output=True, text=True,
            timeout=120,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == errno_executed.result.summary()

        # ...and imported, to compare its record with the stored one
        # bit-for-bit.
        spec = importlib.util.spec_from_file_location("replay_00001", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        reproduced = module.replay()
        assert result_digest(recorded(reproduced)) == result_digest(
            errno_executed.result
        )

    def test_a_cluster_campaigns_scripts_inject_what_serials_do(self):
        """A record carries no plan: a script compiles it from the fault
        with the campaign's injector, whichever fabric ran it."""
        from repro.service.spec import CampaignSpec

        scripts = {}
        for fabric in ("serial", "threads"):
            spec = CampaignSpec(target="replkv", fault_model="errno+disk",
                                iterations=40, seed=3, fabric=fabric,
                                workers=2, batch_size=2)
            with spec.build_engine() as engine:
                run = engine.explore(
                    spec.build_space(engine.target), spec.build_strategy(),
                    iterations=spec.iterations, seed=spec.seed,
                    batch_size=spec.batch_size,
                )
                scripts[fabric] = run.results.regression_suite(
                    "replkv", of=lambda t: t.failed,
                    injector=run.runner.injector,
                )
        assert scripts["serial"] == scripts["threads"]
        assert all("# (no injection)" not in source
                   for source in scripts["serial"].values())

    @pytest.mark.parametrize(
        "fabric", ["serial", "threads", "processes", "socket"])
    def test_a_journaled_crash_replays_from_either_fabric(
            self, tmp_path, capsys, replkv, fabric):
        """``afex replay`` re-executes deterministically and diffs every
        field of the record, so each crash id of a journal reproduces
        whichever fabric wrote it: records pickled across a process
        (``processes``) or encoded across a socket (``socket``, nodes
        in threads) included."""
        from repro.cli import main
        from repro.core.checkpoint import load_checkpoint
        from repro.service.spec import CampaignSpec

        from tests.test_digest_parity import engine_on, explore_on

        path = tmp_path / "ck.json"
        spec = CampaignSpec(target="replkv", fault_model="errno+disk",
                            iterations=40, seed=3, workers=2, nodes=2,
                            batch_size=2)
        with engine_on(spec, fabric) as engine:
            explore_on(engine, spec, checkpoint_path=path,
                       checkpoint_every=1, checkpoint_meta={
                           "target": "replkv", "fault_model": "errno+disk"})
        crashes = sorted({
            _crash_id(replkv, test.fault, "errno+disk")
            for test in load_checkpoint(path).restore_executed()
            if test.result.failed
        })
        assert "05c42f44" in {crash[:8] for crash in crashes}
        for crash in crashes:
            assert main(["replay", crash, "--checkpoint", str(path)]) == 0
            assert "REPRODUCED — zero divergence" in capsys.readouterr().out
