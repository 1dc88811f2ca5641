"""Tests for the simulated coreutils target (Φ_coreutils of §7.2-§7.5)."""

from __future__ import annotations


from repro.injection.models import model_injector
from repro.injection.plan import InjectionPlan
from repro.sim.process import run_test
from repro.sim.targets.coreutils import COREUTILS_FUNCTIONS


def inject(target, test_id, function, call, errno=None):
    attrs = {"function": function, "call": call}
    if errno is not None:
        attrs["errno"] = errno
    plan = model_injector("errno").plan_for(attrs)
    return run_test(target, target.suite[test_id], plan)


class TestSuiteShape:
    def test_29_tests(self, coreutils):
        assert len(coreutils.suite) == 29

    def test_groups_are_contiguous_utilities(self, coreutils):
        assert coreutils.suite.groups == ("ls", "ln", "mv")
        assert len(coreutils.suite.in_group("ls")) == 11
        assert len(coreutils.suite.in_group("ln")) == 9
        assert len(coreutils.suite.in_group("mv")) == 9

    def test_19_functions(self, coreutils):
        assert len(COREUTILS_FUNCTIONS) == 19
        assert coreutils.libc_functions() == COREUTILS_FUNCTIONS

    def test_space_size_matches_paper(self, coreutils):
        # 29 tests x 19 functions x 3 call values = 1,653 (§7.2)
        assert len(coreutils.suite) * len(COREUTILS_FUNCTIONS) * 3 == 1653


class TestBaseline:
    def test_all_tests_pass_without_injection(self, coreutils):
        for test in coreutils.suite:
            result = run_test(coreutils, test)
            assert not result.failed, f"{test.name}: {result.summary()}"

    def test_no_injection_plan_point_is_benign(self, coreutils):
        # call=0 encodes "no injection": must behave exactly like baseline.
        for test_id in (1, 12, 21):
            result = inject(coreutils, test_id, "malloc", 0)
            assert not result.failed and not result.injected


class TestLsBehaviour:
    def test_opendir_failure_fails_ls_tests(self, coreutils):
        result = inject(coreutils, 2, "opendir", 1)
        assert result.failed and not result.crashed

    def test_opendir_failure_irrelevant_to_ln(self, coreutils):
        result = inject(coreutils, 12, "opendir", 1)
        assert not result.failed  # ln never calls opendir

    def test_setlocale_failure_is_tolerated(self, coreutils):
        # Fig. 1's gray column: locale failures are ignored by coreutils.
        for test_id in (2, 12, 21):
            result = inject(coreutils, test_id, "setlocale", 1)
            assert not result.failed

    def test_fputs_failure_is_write_error(self, coreutils):
        result = inject(coreutils, 2, "fputs", 1)
        assert result.failed
        assert result.exit_code == 1

    def test_closedir_failure_ignored_like_real_ls(self, coreutils):
        result = inject(coreutils, 2, "closedir", 1)
        assert not result.failed

    def test_readdir_failure_reported(self, coreutils):
        result = inject(coreutils, 2, "readdir", 1)
        assert result.failed

    def test_recursive_ls_chdir_failure_degrades(self, coreutils):
        result = inject(coreutils, 9, "chdir", 1)
        assert result.failed

    def test_realloc_failure_on_big_dir(self, coreutils):
        result = inject(coreutils, 6, "realloc", 1)
        assert result.failed  # 12 entries forces a grow


class TestLnMvBehaviour:
    def test_link_failure_fails_ln(self, coreutils):
        result = inject(coreutils, 12, "link", 1)
        assert result.failed

    def test_rename_exdev_triggers_copy_fallback_success(self, coreutils):
        result = inject(coreutils, 21, "rename", 1, errno="EXDEV")
        assert not result.failed  # recovery path works
        assert "mv.copy.ok" in result.coverage

    def test_rename_eacces_fails_mv(self, coreutils):
        result = inject(coreutils, 21, "rename", 1, errno="EACCES")
        assert result.failed

    def test_copy_fallback_write_failure_preserves_source(self, coreutils):
        # rename EXDEV (fault 1) is the scenario; write failure inside the
        # fallback needs a multi-fault plan.
        plan = InjectionPlan((
            model_injector("errno").plan_for(
                {"function": "rename", "call": 1, "errno": "EXDEV"}
            ).faults[0],
            model_injector("errno").plan_for(
                {"function": "write", "call": 1, "errno": "ENOSPC"}
            ).faults[0],
        ))
        result = run_test(coreutils, coreutils.suite[21], plan)
        assert result.failed
        assert "mv.copy.abort" in result.coverage

    def test_copy_fallback_read_eintr_retries(self, coreutils):
        plan = InjectionPlan((
            model_injector("errno").plan_for(
                {"function": "rename", "call": 1, "errno": "EXDEV"}
            ).faults[0],
            model_injector("errno").plan_for(
                {"function": "read", "call": 1, "errno": "EINTR"}
            ).faults[0],
        ))
        result = run_test(coreutils, coreutils.suite[21], plan)
        assert not result.failed
        assert "mv.copy.read_retry" in result.coverage

    def test_expected_failure_tests_tolerate_oom(self, coreutils):
        # ln-existing-dest (14), ln-missing-source (17), ln-usage (19),
        # mv-missing-source (26) pass even under malloc injection.
        for test_id in (14, 17, 19, 26):
            for call in (1, 2):
                result = inject(coreutils, test_id, "malloc", call)
                assert not result.failed, (test_id, call)


class TestTable6Invariant:
    def test_exactly_28_malloc_faults_fail_ln_and_mv(self, coreutils):
        """The search target of Table 6: 28 OOM scenarios over ln+mv."""
        failing = 0
        for test_id in range(12, 30):
            for call in (1, 2):
                if inject(coreutils, test_id, "malloc", call).failed:
                    failing += 1
        assert failing == 28

    def test_ln_mv_use_nine_functions(self, coreutils):
        """The §7.5 'trimmed fault space' knowledge is accurate-ish: the
        ln/mv tests call a strict subset of the 19-function axis."""
        from repro.injection.callsite import profile_target

        profile = profile_target(coreutils)
        used: set[str] = set()
        for test_id in range(12, 30):
            used.update(profile.functions_called_by(test_id))
        axis_used = used & set(COREUTILS_FUNCTIONS)
        assert len(axis_used) < len(COREUTILS_FUNCTIONS)
        assert "malloc" in axis_used and "opendir" not in axis_used


class TestStructureMap:
    def test_fig1_style_map_has_block_structure(self, coreutils):
        """ls-only functions fail ls tests but not ln/mv tests."""
        from repro.reporting import structure_map

        functions = list(COREUTILS_FUNCTIONS)
        grid = structure_map(coreutils, functions, call_number=1)
        opendir_column = functions.index("opendir")
        ls_failures = sum(grid[row][opendir_column] for row in range(0, 11))
        lnmv_failures = sum(grid[row][opendir_column] for row in range(11, 29))
        assert ls_failures >= 8
        assert lnmv_failures == 0

    def test_exhaustive_failure_count_in_paper_ballpark(self, coreutils):
        """Paper: 205/1653 injections fail; ours must be same order."""
        injector = model_injector("errno")
        failed = 0
        for test in coreutils.suite:
            for function in COREUTILS_FUNCTIONS:
                for call in (0, 1, 2):
                    plan = injector.plan_for({"function": function, "call": call})
                    if run_test(coreutils, test, plan).failed:
                        failed += 1
        assert 100 <= failed <= 300
