"""Tests for MiniDB — including both planted MySQL bugs and the hang."""

from __future__ import annotations

import pytest

from repro.injection.models import model_injector
from repro.sim.process import run_test
from repro.sim.targets.minidb import GROUP_SIZES, MINIDB_FUNCTIONS


def inject(target, test_id, function, call, errno=None):
    attrs = {"function": function, "call": call}
    if errno is not None:
        attrs["errno"] = errno
    plan = model_injector("errno").plan_for(attrs)
    return run_test(target, target.suite[test_id], plan)


def first_test_of(group: str) -> int:
    """1-based id of the first test in a generated group."""
    offset = 1
    for name, size in GROUP_SIZES.items():
        if name == group:
            return offset
        offset += size
    raise KeyError(group)


class TestSuiteShape:
    def test_1147_tests(self, minidb):
        assert len(minidb.suite) == 1147
        assert sum(GROUP_SIZES.values()) == 1147

    def test_space_size_matches_paper(self, minidb):
        # 1147 x 19 x 100 = 2,179,300 (§7)
        assert len(minidb.suite) * len(MINIDB_FUNCTIONS) * 100 == 2179300

    def test_groups_contiguous(self, minidb):
        assert minidb.suite.groups == tuple(GROUP_SIZES)


class TestBaseline:
    def test_sampled_tests_pass_without_injection(self, minidb):
        # One test from every group plus the group boundaries.
        ids = [first_test_of(g) for g in GROUP_SIZES] + [1147]
        for test_id in ids:
            result = run_test(minidb, minidb.suite[test_id])
            assert not result.failed, (test_id, result.summary())

    @pytest.mark.slow
    def test_full_suite_passes_without_injection(self, minidb):
        for test in minidb.suite:
            result = run_test(minidb, test)
            assert not result.failed, (test.name, result.summary())


class TestDoubleUnlockBug:
    """MySQL bug #53268 (paper Fig. 6): double unlock in mi_create."""

    def test_failed_final_close_double_unlocks(self, minidb):
        create_id = first_test_of("create")
        # close #1 is the errmsg fd; close #2 is the buggy my_close.
        result = inject(minidb, create_id, "close", 2, errno="EIO")
        assert result.crash_kind == "abort"
        assert "double unlock" in result.crash_message
        assert result.crash_stack[-1] == "mi_create_err"

    def test_early_failure_recovery_is_correct(self, minidb):
        create_id = first_test_of("create")
        # A failed open of the .MYI enters the same recovery block while
        # the lock is still held: no crash, graceful statement error.
        result = inject(minidb, create_id, "open", 2)
        assert result.failed and not result.crashed

    def test_write_failure_also_recovers_correctly(self, minidb):
        create_id = first_test_of("create")
        result = inject(minidb, create_id, "write", 1, errno="ENOSPC")
        assert result.failed and not result.crashed
        assert "minidb.create.recovery" in result.coverage

    def test_bug_reproduces_across_table_creating_groups(self, minidb):
        for group in ("create", "insert", "select"):
            result = inject(minidb, first_test_of(group), "close", 2,
                            errno="EIO")
            assert result.crash_kind == "abort", group


class TestErrmsgBug:
    """MySQL bug #25097: use of uninitialized errmsg table after failed read."""

    def test_read_failure_plus_error_lookup_segfaults(self, minidb):
        errmsg_id = first_test_of("errmsg")
        result = inject(minidb, errmsg_id, "read", 1, errno="EIO")
        assert result.crash_kind == "segfault"
        assert "my_error" in result.crash_stack

    def test_recovery_logged_the_read_failure_first(self, minidb):
        errmsg_id = first_test_of("errmsg")
        result = inject(minidb, errmsg_id, "read", 1, errno="EIO")
        # "it correctly logs any encountered error if the read fails"
        assert any("errmsg.sys" in line for line in result.stderr)

    def test_read_failure_alone_is_harmless_without_error_lookup(self, minidb):
        # A test whose workload raises no statement error never reaches
        # my_error, so the latent corruption stays invisible.
        insert_id = first_test_of("insert")
        result = inject(minidb, insert_id, "read", 1, errno="EIO")
        assert not result.crashed

    def test_open_failure_also_arms_the_bug(self, minidb):
        errmsg_id = first_test_of("errmsg")
        result = inject(minidb, errmsg_id, "open", 1)
        assert result.crash_kind == "segfault"


class TestConnectionPoolHang:
    def test_unchecked_getrlimit_hangs_pool_sizing(self, minidb):
        admin_id = first_test_of("admin")  # kind 0: pool sizing
        result = inject(minidb, admin_id, "getrlimit", 1)
        assert result.crash_kind == "hang"

    def test_pool_sizing_fine_without_injection(self, minidb):
        result = run_test(minidb, minidb.suite[first_test_of("admin")])
        assert not result.failed


class TestBinlogAbortPolicy:
    def test_binlog_write_failure_aborts_server(self, minidb):
        binlog_id = first_test_of("binlog")
        result = inject(minidb, binlog_id, "fputs", 2)
        assert result.crash_kind == "abort"
        assert "ABORT_SERVER" in result.crash_message

    def test_binlog_flush_failure_aborts_server(self, minidb):
        binlog_id = first_test_of("binlog")
        result = inject(minidb, binlog_id, "fflush", 1)
        assert result.crash_kind == "abort"

    def test_general_log_write_failure_is_best_effort(self, minidb):
        # fputs #1 in a binlog test is the general log (CREATE logging is
        # absent here; boot opens the general log first).  Use an insert
        # test where fputs #1 is the general-log CREATE entry.
        insert_id = first_test_of("insert")
        result = inject(minidb, insert_id, "fputs", 1)
        assert not result.crashed


class TestStatementErrors:
    def test_insert_write_failure_is_statement_error(self, minidb):
        insert_id = first_test_of("insert")
        result = inject(minidb, insert_id, "write", 2, errno="ENOSPC")
        assert result.failed and not result.crashed

    def test_insert_write_eintr_retry_succeeds(self, minidb):
        insert_id = first_test_of("insert")
        result = inject(minidb, insert_id, "write", 2, errno="EINTR")
        assert not result.failed
        assert "minidb.insert.write_retry" in result.coverage

    def test_update_fsync_failure_aborts_by_policy(self, minidb):
        update_id = first_test_of("update")
        result = inject(minidb, update_id, "fsync", 1)
        assert result.crash_kind == "abort"
        assert "fsync" in result.crash_message

    def test_select_read_failure_is_statement_error(self, minidb):
        select_id = first_test_of("select")
        result = inject(minidb, select_id, "read", 2, errno="EIO")
        assert result.failed and not result.crashed

    def test_rename_failure_during_rewrite(self, minidb):
        update_id = first_test_of("update")
        result = inject(minidb, update_id, "rename", 1, errno="EACCES")
        assert result.failed and not result.crashed


class TestNetGroup:
    def test_recv_failure_fails_connect_test(self, minidb):
        result = inject(minidb, 1, "recv", 1, errno="ECONNRESET")
        assert result.failed and not result.crashed

    def test_accept_eintr_is_retried(self, minidb):
        result = inject(minidb, 1, "accept", 1, errno="EINTR")
        assert not result.failed
        assert "minidb.net.accept_retry" in result.coverage
