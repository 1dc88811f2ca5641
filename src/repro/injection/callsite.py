"""Callsite analysis: derive fault spaces from observed behaviour.

The paper's methodology (§7): "we first run the default test suites that
ship with our test targets, and use the ltrace library-call tracer to
identify the calls that our target makes to libc and count how many
times each libc function is called.  We then use LFI's callsite
analyzer ... to obtain a fault profile for each libc function."

:func:`profile_target` is that pipeline: it runs every test of a target
without injection, collects the per-test per-function call counts every
run records, and joins them with the static fault profiles.  The result can
be rendered directly as a fault-space description in the paper's DSL
(Fig. 3/4) via :meth:`TargetProfile.fault_space_description`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InjectionError
from repro.injection.profiles import fault_profile
from repro.sim.process import run_test
from repro.sim.testsuite import Target

__all__ = ["TargetProfile", "profile_target"]


@dataclass(frozen=True)
class TargetProfile:
    """What a fault-free run of the whole suite revealed."""

    target_name: str
    #: functions observed, in fault-profile (category-grouped) order.
    functions: tuple[str, ...]
    #: call_counts[test_id][function] -> number of calls in that test.
    call_counts: dict[int, dict[str, int]]
    #: max calls to each function across any single test.
    max_calls: dict[str, int]
    test_ids: tuple[int, ...]

    def functions_called_by(self, test_id: int) -> tuple[str, ...]:
        counts = self.call_counts.get(test_id, {})
        return tuple(f for f in self.functions if counts.get(f, 0) > 0)

    def total_calls(self, function: str) -> int:
        return sum(c.get(function, 0) for c in self.call_counts.values())

    def fault_space_description(
        self,
        max_call: int | None = None,
        include_no_injection: bool = False,
        functions: tuple[str, ...] | None = None,
    ) -> str:
        """Render a DSL description (Fig. 3 grammar) of the fault space.

        One subspace spanning the whole suite: ``test`` × ``function`` ×
        ``call``.  ``max_call`` caps the call axis (the paper caps
        MySQL's at 100); by default it is the largest per-test call
        count observed.  ``include_no_injection`` starts the call axis
        at 0, reserving the explicit no-injection point used by the
        coreutils experiments.
        """
        chosen = functions or self.functions
        cap = max_call if max_call is not None else max(
            (self.max_calls.get(f, 1) for f in chosen), default=1
        )
        low = 0 if include_no_injection else 1
        function_set = ", ".join(chosen)
        # Subtype labels are DSL identifiers: letters/digits/underscores.
        label = "".join(
            ch if ch.isalnum() or ch == "_" else "_" for ch in self.target_name
        )
        return (
            f"{label}\n"
            f"test : [ {min(self.test_ids)} , {max(self.test_ids)} ]\n"
            f"function : {{ {function_set} }}\n"
            f"call : [ {low} , {cap} ] ;\n"
        )


def profile_target(target: Target, step_budget: int = 200_000) -> TargetProfile:
    """Run every test of ``target`` (no injection) and build a profile.

    Functions with no fault profile are skipped: they are not injectable
    and therefore not part of any fault space.
    """
    call_counts: dict[int, dict[str, int]] = {}
    observed: set[str] = set()
    max_calls: dict[str, int] = {}
    for test in target.suite:
        result_counts = _count_one(target, test, step_budget)
        call_counts[test.id] = result_counts
        for function, count in result_counts.items():
            observed.add(function)
            if count > max_calls.get(function, 0):
                max_calls[function] = count

    # Order observed functions by the category-grouped profile order so
    # the function axis has the locality the Gaussian mutation exploits.
    from repro.injection.profiles import profiled_functions

    ordered = tuple(f for f in profiled_functions() if f in observed)
    return TargetProfile(
        target_name=target.name,
        functions=ordered,
        call_counts=call_counts,
        max_calls=max_calls,
        test_ids=target.suite.ids,
    )


#: categories ordered by how often unchecked return values lurk there —
#: the heuristic LFI's callsite analyzer encodes (memory allocation
#: failures are the classic unchecked case, stdio next, and so on).
_RISK_ORDER = ("memory", "stdio", "file", "dir", "net", "process",
               "locale", "string")


def suggest_seeds(profile: TargetProfile, per_function: int = 1):
    """Static-analysis-style seed faults for the explorer (§4).

    "AFEX can use the results of the static analysis in the initial
    generation phase of test candidates.  By starting off with highly
    relevant tests from the beginning, AFEX can quickly learn the
    structure of the fault space."  Our analyzer equivalent ranks the
    observed functions by the riskiness of their category and, for each,
    proposes failing its first call(s) in the test that exercises it
    most — one concrete, plausible high-value injection per function.

    Returns :class:`repro.core.fault.Fault` objects with the standard
    ``test``/``function``/``call`` attributes.
    """
    from repro.core.fault import Fault

    def risk(function: str) -> int:
        category = fault_profile(function).category
        try:
            return _RISK_ORDER.index(category)
        except ValueError:  # pragma: no cover - every category is listed
            return len(_RISK_ORDER)

    seeds = []
    for function in sorted(profile.functions, key=risk):
        # The test that calls this function the most is the best probe.
        best_test = max(
            profile.test_ids,
            key=lambda tid: profile.call_counts.get(tid, {}).get(function, 0),
        )
        if profile.call_counts.get(best_test, {}).get(function, 0) == 0:
            continue
        for call in range(1, per_function + 1):
            if call <= profile.call_counts[best_test][function]:
                seeds.append(Fault.of(test=best_test, function=function,
                                      call=call))
    return tuple(seeds)


def _count_one(target: Target, test, step_budget: int) -> dict[str, int]:
    """Per-function call counts for one uninjected test run."""
    result = run_test(target, test, step_budget=step_budget)
    counts: dict[str, int] = {}
    for function, count in result.call_counts.items():
        if _is_injectable(function):
            counts[function] = count
    return counts


def _is_injectable(function: str) -> bool:
    try:
        fault_profile(function)
    except InjectionError:
        return False
    return True
