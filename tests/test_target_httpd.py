"""Tests for MiniHttpd — including the Fig. 7 strdup bug."""

from __future__ import annotations


from repro.injection.models import model_injector
from repro.sim.process import run_test
from repro.sim.targets.httpd import HTTPD_FUNCTIONS, KNOWN_MODULES


def inject(target, test_id, function, call, errno=None):
    attrs = {"function": function, "call": call}
    if errno is not None:
        attrs["errno"] = errno
    plan = model_injector("errno").plan_for(attrs)
    return run_test(target, target.suite[test_id], plan)


class TestSuiteShape:
    def test_58_tests(self, httpd):
        assert len(httpd.suite) == 58

    def test_space_size_matches_paper(self, httpd):
        # 58 x 19 x 10 = 11,020 (§7.1)
        assert len(httpd.suite) * len(HTTPD_FUNCTIONS) * 10 == 11020

    def test_groups(self, httpd):
        assert set(httpd.suite.groups) == {
            "config", "modules", "static", "logging", "protocol", "session",
        }


class TestBaseline:
    def test_all_tests_pass_without_injection(self, httpd):
        for test in httpd.suite:
            result = run_test(httpd, test)
            assert not result.failed, f"{test.name}: {result.summary()}"


class TestStrdupBug:
    """Paper Fig. 7: unchecked strdup in module short-name registration."""

    def test_module_registration_strdup_segfaults(self, httpd):
        # Test 1 parses 4 directives (4 checked strdups) then registers 5
        # modules (unchecked): strdup #5 is the first registration.
        result = inject(httpd, 1, "strdup", 5)
        assert result.crash_kind == "segfault"
        assert "ap_add_module" in result.crash_stack

    def test_config_value_strdup_is_checked(self, httpd):
        # strdup #1 happens in the config parser, which checks for NULL
        # and skips the directive: never a crash, and for test 1 (whose
        # expectations match the defaults) not even a failure.
        result = inject(httpd, 1, "strdup", 1)
        assert not result.crashed
        # A test that depends on the skipped directive does fail: test 2
        # (boot-alt-port) loses its Listen override... which is benign;
        # boot-deep-docroot (9) loses DocumentRoot and serves nothing.
        result = inject(httpd, 9, "strdup", 2)
        assert result.failed and not result.crashed

    def test_crash_band_matches_module_count(self, httpd):
        """Tests loading more modules expose more crashing strdup calls."""
        # modules-01 (test 11) registers 1 module after 4 config strdups.
        assert inject(httpd, 11, "strdup", 5).crashed
        assert not inject(httpd, 11, "strdup", 6).injected  # call never made
        # modules-16 (test 20) registers 16 modules: calls 5..10 all crash.
        for call in (5, 7, 10):
            assert inject(httpd, 20, "strdup", call).crashed

    def test_crash_happens_before_any_logging(self, httpd):
        result = inject(httpd, 1, "strdup", 5)
        # The server never got to open its log: no diagnostic anywhere —
        # the "crashes with no information on why" the paper highlights.
        assert not result.stderr
        assert not result.stdout


class TestGracefulRecovery:
    def test_oom_in_request_buffer_is_graceful_shutdown(self, httpd):
        # The checked-malloc path: log + 500 + clean exit(1).  The first
        # malloc in the run is the request-buffer malloc.
        result = inject(httpd, 1, "malloc", 1)
        assert result.failed and not result.crashed
        assert result.exit_code == 1

    def test_config_open_failure_falls_back_to_defaults(self, httpd):
        # Real httpd has compiled-in defaults; test 1 uses exactly the
        # default layout, so losing the config file is survivable.
        result = inject(httpd, 1, "fopen", 1)
        assert not result.failed
        assert any("using defaults" in line for line in result.stderr)

    def test_config_open_failure_fails_nondefault_tests(self, httpd):
        # boot-alt-port (test 2) depends on a non-default directive:
        # the same fault now fails the test — test-dependent structure.
        result = inject(httpd, 9, "fopen", 1)  # boot-deep-docroot
        assert result.failed and not result.crashed

    def test_socket_failure_fails_boot(self, httpd):
        result = inject(httpd, 1, "socket", 1)
        assert result.failed and not result.crashed

    def test_unknown_module_expected_boot_failure(self, httpd):
        # boot-unknown-module (test 5) expects boot to fail...
        result = run_test(httpd, httpd.suite[5])
        assert not result.failed
        # ...but a truncated config (injected fgets error) hides the bad
        # module, the boot *succeeds*, and the expected-failure test
        # fails — an injection flipping a negative test is real signal.
        result = inject(httpd, 5, "fgets", 1)
        assert result.failed and not result.crashed

    def test_read_failure_on_content_is_500_not_crash(self, httpd):
        result = inject(httpd, 1, "read", 1, errno="EIO")
        assert result.failed and not result.crashed

    def test_read_eintr_is_retried(self, httpd):
        result = inject(httpd, 1, "read", 1, errno="EINTR")
        assert not result.failed
        assert "httpd.request.read_retry" in result.coverage

    def test_accept_eintr_is_retried(self, httpd):
        result = inject(httpd, 1, "accept", 1, errno="EINTR")
        assert not result.failed
        assert "httpd.accept.eintr_retry" in result.coverage

    def test_log_write_failure_tolerated(self, httpd):
        result = inject(httpd, 1, "fputs", 1)
        assert not result.failed
        assert "httpd.log.write_failed" in result.coverage


class TestWorkloadShape:
    def test_session_tests_serve_many_requests(self, httpd):
        result = run_test(httpd, httpd.suite[58])  # session-24-requests
        assert result.call_counts["recv"] == 24
        assert result.call_counts["accept"] == 24

    def test_known_modules_cover_requested_counts(self):
        assert len(KNOWN_MODULES) == 16
