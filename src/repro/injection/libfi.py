"""The library-level fault vocabulary (our LFI stand-in).

:func:`atomic_for` understands the attribute vocabulary the paper's
fault spaces use (§2, §7 "Fault Space Definition Methodology"); the
``errno`` fault model (:mod:`repro.injection.models.errno_model`, the
default injector everywhere) compiles single-fault scenarios through it:

``function``
    libc function name (string).
``call`` / ``callNumber``
    1-based call cardinality.  ``0`` means *no injection* — the hole the
    coreutils space reserves so exhaustive search has an explicit
    baseline point per test.  A ``(lo, hi)`` tuple — the value shape
    produced by the DSL's ``< lo , hi >`` sub-interval axes — fails
    every call in the range.
``errno`` (optional)
    symbolic errno; defaults to the function's representative failure
    mode from :mod:`repro.injection.profiles`.
``retval`` (optional)
    injected return value; defaults alongside errno.
``persistent`` (optional)
    fail every call from ``callNumber`` onward.

Attributes outside this vocabulary (notably ``test``) are ignored here —
they parameterize the *workload*, not the injector, and are consumed by
the node manager.

:class:`MultiLibFaultInjector` extends the vocabulary to multi-fault
scenarios (§4 "fault injection scenarios of arbitrary complexity"):
attributes are grouped by a numeric suffix, e.g. ``function_1``/
``call_1`` and ``function_2``/``call_2`` describe two atomic faults
injected in the same run.
"""

from __future__ import annotations

import re

from repro.errors import InjectionError
from repro.injection.injector import FaultInjector
from repro.injection.plan import AtomicFault, InjectionPlan
from repro.injection.profiles import fault_profile
from repro.sim.errnos import Errno

__all__ = ["MultiLibFaultInjector", "atomic_for"]


def atomic_for(
    function: object,
    call: object,
    errno: object = None,
    retval: object = None,
    persistent: object = False,
) -> AtomicFault | None:
    """Build one atomic fault from attribute values (None = no injection).

    Applies the profile-based defaulting rules shared by every
    library-level injector.
    """
    if function is None:
        raise InjectionError("libfi fault needs a 'function' attribute")
    function = str(function)

    if call is None:
        raise InjectionError("libfi fault needs a 'call' number")
    until: int | None = None
    if isinstance(call, tuple):
        if len(call) != 2:
            raise InjectionError(f"range call value must be (lo, hi): {call!r}")
        call_number, until = int(call[0]), int(call[1])
        if call_number == 0:
            return None
    else:
        call_number = int(call)  # type: ignore[arg-type]
    if call_number == 0:
        return None
    if call_number < 0:
        raise InjectionError(f"negative call number: {call_number}")

    profile = fault_profile(function)
    default_errno, default_retval = profile.default_error()

    if errno is None:
        chosen_errno = default_errno
    elif isinstance(errno, Errno):
        chosen_errno = errno
    else:
        chosen_errno = Errno.from_name(str(errno))
    if chosen_errno not in profile.errnos() and chosen_errno is not default_errno:
        raise InjectionError(
            f"{function} cannot fail with {chosen_errno.name}; "
            f"profile allows {[e.name for e in profile.errnos()]}"
        )

    if retval is None:
        chosen_retval = default_retval
        for profile_errno, profile_retval in profile.errors:
            if profile_errno is chosen_errno:
                chosen_retval = profile_retval
                break
    else:
        chosen_retval = int(retval)  # type: ignore[arg-type]

    return AtomicFault(
        function, call_number, chosen_errno, chosen_retval,
        bool(persistent), until,
    )


_SUFFIX = re.compile(r"^(function|call|callNumber|errno|retval|persistent)_(\w+)$")


class MultiLibFaultInjector(FaultInjector):
    """Multi-fault scenarios: suffix-grouped attribute vocabulary.

    ``{"function_a": "rename", "call_a": 1, "function_b": "write",
    "call_b": 2}`` injects two atomic faults in one run.  Groups whose
    call number is 0 contribute nothing, so fault spaces can express
    "zero, one, or two faults" uniformly; un-suffixed attributes
    describe an additional fault (compatible with the single-fault
    vocabulary).
    """

    name = "multi-libfi"

    def plan_for(self, attributes: dict[str, object]) -> InjectionPlan:
        groups: dict[str, dict[str, object]] = {}
        plain: dict[str, object] = {}
        for key, value in attributes.items():
            match = _SUFFIX.match(key)
            if match is not None:
                field, suffix = match.groups()
                groups.setdefault(suffix, {})[field] = value
            elif key in ("function", "call", "callNumber", "errno",
                         "retval", "persistent"):
                plain[key] = value

        faults: list[AtomicFault] = []
        if "function" in plain:
            fault = atomic_for(
                plain.get("function"),
                plain.get("call", plain.get("callNumber")),
                plain.get("errno"),
                plain.get("retval"),
                plain.get("persistent", False),
            )
            if fault is not None:
                faults.append(fault)
        for suffix in sorted(groups):
            group = groups[suffix]
            fault = atomic_for(
                group.get("function"),
                group.get("call", group.get("callNumber")),
                group.get("errno"),
                group.get("retval"),
                group.get("persistent", False),
            )
            if fault is not None:
                faults.append(fault)

        seen_functions = [f.function for f in faults]
        if len(set(seen_functions)) != len(seen_functions):
            # Two atomic faults on the same function: keep both only if
            # their trigger windows are disjoint; otherwise reject the
            # scenario as ambiguous (the space should model it as one
            # range fault instead).
            by_function: dict[str, list[AtomicFault]] = {}
            for fault in faults:
                by_function.setdefault(fault.function, []).append(fault)
            for function, group_faults in by_function.items():
                windows = sorted(
                    (f.call_number, f.until or f.call_number)
                    for f in group_faults
                )
                for (lo1, hi1), (lo2, hi2) in zip(windows, windows[1:]):
                    if hi1 >= lo2:
                        raise InjectionError(
                            f"overlapping faults on {function!r}: {windows}"
                        )
        return InjectionPlan(tuple(faults))
