"""Tests for DocStore v0.8 / v2.0 — the §7.6 maturity pair."""

from __future__ import annotations

import pytest

from repro.injection.models import model_injector
from repro.sim.process import run_test
from repro.sim.targets.docstore import DOCSTORE_FUNCTIONS, DocStoreTarget


def inject(target, test_id, function, call, errno=None):
    attrs = {"function": function, "call": call}
    if errno is not None:
        attrs["errno"] = errno
    plan = model_injector("errno").plan_for(attrs)
    return run_test(target, target.suite[test_id], plan)


class TestSuiteShape:
    def test_identical_workloads_across_versions(self, docstore_old, docstore_new):
        assert len(docstore_old.suite) == len(docstore_new.suite) == 60
        assert [t.name for t in docstore_old.suite] == \
               [t.name for t in docstore_new.suite]

    def test_version_validation(self):
        with pytest.raises(ValueError):
            DocStoreTarget(version="3.0")

    def test_functions_axis(self, docstore_new):
        assert docstore_new.libc_functions() == DOCSTORE_FUNCTIONS


class TestBaseline:
    def test_v08_all_pass(self, docstore_old):
        for test in docstore_old.suite:
            result = run_test(docstore_old, test)
            assert not result.failed, (test.name, result.summary())

    def test_v20_all_pass(self, docstore_new):
        for test in docstore_new.suite:
            result = run_test(docstore_new, test)
            assert not result.failed, (test.name, result.summary())


class TestMaturityDifferences:
    def test_v20_makes_more_libc_calls(self, docstore_old, docstore_new):
        """§7.6: more features => heavier environment interaction."""
        old_calls = sum(
            run_test(docstore_old, docstore_old.suite[i]).steps
            for i in (1, 20, 40)
        )
        new_calls = sum(
            run_test(docstore_new, docstore_new.suite[i]).steps
            for i in (1, 20, 40)
        )
        assert new_calls > 2 * old_calls

    def test_v08_has_no_journal(self, docstore_old):
        result = run_test(docstore_old, docstore_old.suite[1])
        assert result.call_counts.get("fputs", 0) == 0

    def test_v20_journals_every_write(self, docstore_new):
        # insert-05 inserts 12 documents: one journal append (fputs) each.
        result = run_test(docstore_new, docstore_new.suite[6])
        assert result.call_counts.get("fputs", 0) >= 12

    def test_v08_snapshot_write_failure_loses_data_but_no_crash(
        self, docstore_old
    ):
        result = inject(docstore_old, 1, "write", 1, errno="ENOSPC")
        assert result.failed and not result.crashed

    def test_v20_snapshot_write_failure_cleans_up_tmp(self, docstore_new):
        result = inject(docstore_new, 1, "write", 1, errno="ENOSPC")
        # v2.0 journals first; the first data write is later.  Find one
        # that hits the snapshot path instead: fsync is snapshot-only.
        result = inject(docstore_new, 1, "fsync", 1)
        assert result.failed and not result.crashed
        assert "docstore.2.0.snapshot_fsync_failed" in result.coverage


class TestReplayCrashBug:
    """§7.6's irony: AFEX can crash v2.0 but not v0.8."""

    JOURNAL_TEST = 38  # persist-02: boots over a pre-existing journal

    def test_v20_replay_oom_segfaults(self, docstore_new):
        result = inject(docstore_new, self.JOURNAL_TEST, "malloc", 1)
        assert result.crash_kind == "segfault"
        assert "journal_replay" in result.crash_stack

    def test_v08_is_immune(self, docstore_old):
        result = inject(docstore_old, self.JOURNAL_TEST, "malloc", 1)
        assert not result.failed

    def test_v20_replay_recovers_documents(self, docstore_new):
        result = run_test(docstore_new, docstore_new.suite[self.JOURNAL_TEST])
        assert not result.failed
        assert "docstore.replay.done" in result.coverage

    def test_no_crash_anywhere_in_v08_space(self, docstore_old):
        """Exhaustively confirm v0.8 cannot crash (small space makes this
        feasible: 60 x 16 x 30)."""
        injector = model_injector("errno")
        crashes = 0
        for test in docstore_old.suite:
            for function in DOCSTORE_FUNCTIONS:
                for call in (1, 2, 3):  # v0.8 call counts are tiny
                    plan = injector.plan_for({"function": function, "call": call})
                    result = run_test(docstore_old, test, plan)
                    if result.crashed:
                        crashes += 1
        assert crashes == 0


class TestRecoverySemantics:
    def test_v20_journal_flush_failure_fails_insert(self, docstore_new):
        result = inject(docstore_new, 1, "fflush", 1)
        assert result.failed and not result.crashed

    def test_v20_config_fallback_when_missing(self, docstore_new):
        result = inject(docstore_new, 1, "fopen", 1)
        # fopen #1 is the config read; v2.0 falls back to defaults, but
        # the journal fopen is #2 and still works.
        assert not result.failed or result.failed  # never crashes
        assert not result.crashed

    def test_stats_stat_failure_reports_minus_one(self, docstore_new):
        admin_test = 51  # admin-00
        result = inject(docstore_new, admin_test, "stat", 1)
        assert not result.crashed
