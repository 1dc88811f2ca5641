"""The errno fault model: the library-level fault vocabulary (our LFI
stand-in) behind the plugin interface.

The axes match the CLI's historical default space (``function`` ×
``call``, with ``call=0`` reserved as the explicit no-injection point).
This is the only errno injector: ``ModelInjector("errno")`` is what
``TargetRunner`` defaults to, and the frozen digests in
``tests/test_faultmodel_conformance.py`` pin its campaigns to the
pre-plugin injector's bytes.

:func:`atomic_for` understands the attribute vocabulary the paper's
fault spaces use (§2, §7 "Fault Space Definition Methodology"):

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

Multi-fault scenarios (§4 "fault injection scenarios of arbitrary
complexity") group the same vocabulary by a suffix: ``function_a``/
``call_a`` and ``function_b``/``call_b`` describe two atomic faults
injected in the same run.  The unsuffixed fault (if the scenario names
a ``function``) comes first, then the groups in sorted suffix order; a
group whose call is 0 contributes nothing, so one space can express
"zero, one, or two faults" uniformly.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence

from repro.errors import InjectionError
from repro.injection.models.base import FaultModel, WorldHook, register_model
from repro.injection.plan import AtomicFault
from repro.injection.profiles import fault_profile
from repro.sim.errnos import Errno

__all__ = ["ErrnoFaultModel", "atomic_for"]


def atomic_for(
    function: object,
    call: object,
    errno: object = None,
    retval: object = None,
    persistent: object = False,
) -> AtomicFault | None:
    """Build one atomic fault from attribute values (None = no injection),
    applying the profile-based defaulting rules."""
    if function is None:
        raise InjectionError("errno fault needs a 'function' attribute")
    function = str(function)

    if call is None:
        raise InjectionError("errno fault needs a 'call' number")
    until: int | None = None
    if isinstance(call, tuple):
        if len(call) != 2:
            raise InjectionError(f"range call value must be (lo, hi): {call!r}")
        call_number, until = int(call[0]), int(call[1])
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


def _atomic(fields: Mapping[str, object]) -> AtomicFault | None:
    return atomic_for(
        fields.get("function"),
        fields.get("call", fields.get("callNumber")),
        fields.get("errno"),
        fields.get("retval"),
        fields.get("persistent", False),
    )


def _suffix_groups(attributes: Mapping[str, object]) -> dict[str, dict[str, object]]:
    """Suffix → that group's vocabulary; empty for a single-fault scenario."""
    groups: dict[str, dict[str, object]] = {}
    for key, value in attributes.items():
        if "_" in key and (match := _SUFFIX.match(key)) is not None:
            field, suffix = match.groups()
            groups.setdefault(suffix, {})[field] = value
    return groups


def _require_disjoint(faults: tuple[AtomicFault, ...]) -> None:
    """Two faults on one function stand only if their trigger windows
    are disjoint; otherwise the scenario is ambiguous (the space should
    model it as one range fault instead)."""
    windows: dict[str, list[tuple[int, int]]] = {}
    for fault in faults:
        windows.setdefault(fault.function, []).append(
            (fault.call_number, fault.until or fault.call_number))
    for function, spans in windows.items():
        spans.sort()
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            if hi >= lo:
                raise InjectionError(
                    f"overlapping faults on {function!r}: {spans}"
                )


class ErrnoFaultModel(FaultModel):
    """Library-call errno injection (the paper's §2 fault space)."""

    name = "errno"
    rank = 0

    def axes(self, target, max_call: int = 2) -> dict[str, Sequence[object]]:
        return {
            "function": target.libc_functions(),
            "call": range(0, max_call + 1),
        }

    def compile(
        self, attributes: dict[str, object]
    ) -> tuple[tuple[AtomicFault, ...], tuple[WorldHook, ...]]:
        groups = _suffix_groups(attributes)
        if not groups:
            fault = _atomic(attributes)
            return ((fault,) if fault is not None else (), ())
        atomics = [_atomic(attributes)] if "function" in attributes else []
        atomics.extend(_atomic(groups[suffix]) for suffix in sorted(groups))
        faults = tuple(fault for fault in atomics if fault is not None)
        _require_disjoint(faults)
        return (faults, ())


register_model("errno", ErrnoFaultModel)
