"""Tests for the injection substrate: plans, profiles, plugins, analysis."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import InjectionError
from repro.injection.callsite import profile_target
from repro.injection.models import model_injector
from repro.injection.plan import AtomicFault, InjectionPlan
from repro.injection.profiles import (
    default_fault,
    fault_profile,
    profiled_functions,
)
from repro.sim.errnos import Errno


class TestAtomicFault:
    def test_fires_exactly_once_by_default(self):
        fault = AtomicFault("read", 3, Errno.EINTR, -1)
        assert not fault.fires_at(2)
        assert fault.fires_at(3)
        assert not fault.fires_at(4)

    def test_persistent_fires_from_trigger_on(self):
        fault = AtomicFault("read", 3, Errno.EINTR, -1, persistent=True)
        assert not fault.fires_at(2)
        assert fault.fires_at(3) and fault.fires_at(99)

    def test_zero_call_number_rejected(self):
        with pytest.raises(InjectionError):
            AtomicFault("read", 0, Errno.EINTR, -1)

    def test_empty_function_rejected(self):
        with pytest.raises(InjectionError):
            AtomicFault("", 1, Errno.EINTR, -1)

    def test_format_matches_paper_fig5(self):
        fault = AtomicFault("malloc", 23, Errno.ENOMEM, 0)
        assert fault.format() == (
            "function malloc errno ENOMEM retval 0 callNumber 23"
        )

    def test_parse_fig5_example(self):
        fault = AtomicFault.parse(
            "function malloc errno ENOMEM retval 0 callNumber 23"
        )
        assert fault == AtomicFault("malloc", 23, Errno.ENOMEM, 0)

    def test_parse_missing_field_rejected(self):
        with pytest.raises(InjectionError):
            AtomicFault.parse("function malloc errno ENOMEM")

    def test_parse_unknown_errno_rejected(self):
        with pytest.raises(InjectionError):
            AtomicFault.parse("function f errno EWHAT retval 0 callNumber 1")

    def test_parse_bad_number_rejected(self):
        with pytest.raises(InjectionError):
            AtomicFault.parse("function f errno EIO retval x callNumber 1")

    @given(
        st.sampled_from(profiled_functions()),
        st.integers(min_value=1, max_value=1000),
        st.sampled_from([Errno.EIO, Errno.ENOMEM, Errno.EINTR]),
        st.sampled_from([-1, 0]),
        st.booleans(),
    )
    def test_format_parse_roundtrip(self, function, call, errno, retval, persistent):
        fault = AtomicFault(function, call, errno, retval, persistent)
        assert AtomicFault.parse(fault.format()) == fault


class TestInjectionPlan:
    def test_none_plan_is_empty(self):
        plan = InjectionPlan.none()
        assert plan.is_empty and len(plan) == 0
        assert plan.lookup("read", 1) is None

    def test_single_plan_lookup(self):
        plan = InjectionPlan.single("read", 2, Errno.EIO, -1)
        assert plan.lookup("read", 2) is not None
        assert plan.lookup("read", 1) is None
        assert plan.lookup("write", 2) is None

    def test_multi_fault_scenario(self):
        plan = InjectionPlan((
            AtomicFault("read", 3, Errno.EINTR, -1),
            AtomicFault("malloc", 7, Errno.ENOMEM, 0),
        ))
        assert plan.functions() == frozenset({"read", "malloc"})
        assert plan.lookup("malloc", 7).errno is Errno.ENOMEM

    def test_plan_text_roundtrip(self):
        plan = InjectionPlan((
            AtomicFault("read", 3, Errno.EINTR, -1),
            AtomicFault("malloc", 7, Errno.ENOMEM, 0, persistent=True),
        ))
        assert InjectionPlan.parse(plan.format()) == plan

    def test_parse_skips_comments_and_blanks(self):
        text = "# scenario\n\nfunction read errno EIO retval -1 callNumber 1\n"
        assert len(InjectionPlan.parse(text)) == 1


class TestProfiles:
    def test_known_function_profile(self):
        profile = fault_profile("read")
        assert Errno.EINTR in profile.errnos()
        assert profile.category == "file"

    def test_unknown_function_raises(self):
        with pytest.raises(InjectionError):
            fault_profile("nosuchfn")

    def test_default_fault_is_first_profile_entry(self):
        errno, retval = default_fault("malloc")
        assert errno is Errno.ENOMEM and retval == 0

    def test_category_filter(self):
        memory = profiled_functions("memory")
        assert "malloc" in memory and "read" not in memory

    def test_profiles_grouped_by_category(self):
        functions = profiled_functions()
        categories = [fault_profile(f).category for f in functions]
        # category changes must be monotone: once left, never revisited
        seen: list[str] = []
        for category in categories:
            if category not in seen:
                seen.append(category)
        assert categories == sorted(categories, key=seen.index)

    def test_pointer_functions_fail_with_null(self):
        for function in ("malloc", "fopen", "opendir", "strdup"):
            for errno, retval in fault_profile(function).errors:
                assert retval == 0, f"{function} should fail with NULL"


class TestErrnoInjector:
    def setup_method(self):
        self.injector = model_injector("errno")

    def test_full_attribute_plan(self):
        plan = self.injector.plan_for({
            "function": "read", "call": 3, "errno": "EINTR", "retval": -1,
        })
        fault = plan.faults[0]
        assert fault == AtomicFault("read", 3, Errno.EINTR, -1)

    def test_defaults_from_profile(self):
        plan = self.injector.plan_for({"function": "malloc", "call": 1})
        fault = plan.faults[0]
        assert fault.errno is Errno.ENOMEM and fault.retval == 0

    def test_call_zero_means_no_injection(self):
        plan = self.injector.plan_for({"function": "read", "call": 0})
        assert plan.is_empty

    def test_retval_paired_with_chosen_errno(self):
        plan = self.injector.plan_for(
            {"function": "read", "call": 1, "errno": "EIO"}
        )
        assert plan.faults[0].retval == -1

    def test_errno_outside_profile_rejected(self):
        with pytest.raises(InjectionError):
            self.injector.plan_for(
                {"function": "malloc", "call": 1, "errno": "EISDIR"}
            )

    def test_errno_enum_accepted(self):
        plan = self.injector.plan_for(
            {"function": "read", "call": 1, "errno": Errno.EINTR}
        )
        assert plan.faults[0].errno is Errno.EINTR

    def test_missing_function_rejected(self):
        with pytest.raises(InjectionError):
            self.injector.plan_for({"call": 1})

    def test_missing_call_rejected(self):
        with pytest.raises(InjectionError):
            self.injector.plan_for({"function": "read"})

    def test_negative_call_rejected(self):
        with pytest.raises(InjectionError):
            self.injector.plan_for({"function": "read", "call": -1})

    def test_callnumber_alias(self):
        plan = self.injector.plan_for({"function": "read", "callNumber": 2})
        assert plan.faults[0].call_number == 2

    def test_test_attribute_ignored(self):
        plan = self.injector.plan_for({"test": 9, "function": "read", "call": 1})
        assert len(plan) == 1


class TestCallsiteAnalyzer:
    def test_profile_observes_coreutils_functions(self, coreutils):
        profile = profile_target(coreutils)
        assert "malloc" in profile.functions
        assert "opendir" in profile.functions
        assert profile.test_ids == tuple(range(1, 30))

    def test_call_counts_are_per_test_maxima(self, coreutils):
        profile = profile_target(coreutils)
        # ln-simple (test 12) makes exactly 2 malloc calls.
        assert profile.call_counts[12]["malloc"] == 2
        assert profile.max_calls["malloc"] >= 2

    def test_functions_called_by(self, coreutils):
        profile = profile_target(coreutils)
        ls_functions = profile.functions_called_by(2)  # ls-few-files
        assert "opendir" in ls_functions
        assert "rename" not in ls_functions

    def test_description_parses_back(self, coreutils):
        from repro.core.dsl import parse_fault_space

        profile = profile_target(coreutils)
        text = profile.fault_space_description(max_call=2,
                                               include_no_injection=True)
        space = parse_fault_space(text)
        assert space.size() > 0
        names = space.axis_names()
        assert names == ("test", "function", "call")

    def test_total_calls_sums_over_tests(self, coreutils):
        profile = profile_target(coreutils)
        assert profile.total_calls("malloc") >= 29  # every test copies args
