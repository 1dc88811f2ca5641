"""Test suites and target (system-under-test) definitions.

A :class:`Target` bundles a system under test with its default test
suite — the paper's setup, where the ``X_test`` axis of the fault space
indexes "the tests in the default test suite" of the target (§2, Fig. 1).
Tests are 1-indexed to match the paper's axes.

Targets are immutable descriptions; all mutable state lives in the
per-run :class:`~repro.sim.process.Env`, so a single target instance can
be exercised concurrently by many node managers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import TargetError
from repro.sim.process import Env

__all__ = ["TestCase", "TestSuite", "Target"]


@dataclass(frozen=True)
class TestCase:
    """One test in a target's default suite.

    ``id`` is the test's index on the fault space's ``X_test`` axis
    (1-based).  ``group`` names the functional area the test belongs to;
    the paper notes tests in real suites "are often grouped by
    functionality" (§3), which is where much of the fault-space
    structure along ``X_test`` comes from — suites here keep groups
    contiguous to preserve that property.
    """

    id: int
    name: str
    group: str
    body: Callable[[Env], None]

    def __post_init__(self) -> None:
        if self.id < 1:
            raise TargetError(f"test ids are 1-based, got {self.id}")


class TestSuite:
    """An ordered, 1-indexed collection of test cases."""

    def __init__(self, tests: list[TestCase]) -> None:
        if not tests:
            raise TargetError("a test suite needs at least one test")
        expected = list(range(1, len(tests) + 1))
        actual = [t.id for t in tests]
        if actual != expected:
            raise TargetError(
                f"test ids must be contiguous starting at 1, got {actual[:5]}..."
            )
        self._tests = list(tests)
        self._by_id = {t.id: t for t in tests}

    def __len__(self) -> int:
        return len(self._tests)

    def __iter__(self):
        return iter(self._tests)

    def __getitem__(self, test_id: int) -> TestCase:
        test = self._by_id.get(test_id)
        if test is None:
            raise TargetError(f"no test with id {test_id}")
        return test

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(t.id for t in self._tests)

    @property
    def groups(self) -> tuple[str, ...]:
        """Distinct group names in first-appearance order."""
        seen: dict[str, None] = {}
        for t in self._tests:
            seen.setdefault(t.group, None)
        return tuple(seen)

    def in_group(self, group: str) -> list[TestCase]:
        return [t for t in self._tests if t.group == group]


class Target:
    """Base class for systems under test.

    Subclasses override :meth:`build_suite` (and usually
    :meth:`setup`).  The suite is built once and cached; targets must be
    stateless apart from that cache.
    """

    #: human-readable target name, e.g. "coreutils", "minidb".
    name: str = "target"
    #: version string, so the same code base can ship multiple maturities
    #: (the MongoDB v0.8 / v2.0 experiment, §7.6).
    version: str = "1.0"

    def __init__(self) -> None:
        self._suite: TestSuite | None = None

    def build_suite(self) -> TestSuite:
        """Construct the default test suite (override)."""
        raise NotImplementedError

    @property
    def suite(self) -> TestSuite:
        if self._suite is None:
            self._suite = self.build_suite()
        return self._suite

    def setup(self, env: Env, test: TestCase) -> None:
        """Startup script: populate the pristine environment for ``test``.

        Runs *before* the injection plan is armed, mirroring the
        prototype's startup/test/cleanup script split (§6.1) — faults
        are injected into the system under test, not into test fixtures.
        """

    def libc_functions(self) -> tuple[str, ...]:
        """The libc functions this target is known to call.

        The default implementation derives the list empirically with the
        callsite analyzer (running the whole suite once, fault-free); targets
        may override with a static list to avoid that cost.
        """
        from repro.injection.callsite import profile_target

        profile = profile_target(self)
        return profile.functions

    def invariants(self, env: Env, test: TestCase) -> list[str]:
        """Fault-injection-oriented assertions (§7 "Metrics").

        "Once fault injection becomes more widely adopted in test
        suites, we expect developers to write fault injection-oriented
        assertions, such as 'under no circumstances should a file
        transfer be only partially completed when the system stops'."

        This hook is evaluated *post-mortem* by the test runner — after
        the test body finished, failed, or **crashed** — against the
        final environment state.  Return a description per violated
        invariant; an empty list means every always-true property held.
        The default target has none.
        """
        return []

    def describe(self) -> str:
        return f"{self.name}-{self.version} ({len(self.suite)} tests)"
