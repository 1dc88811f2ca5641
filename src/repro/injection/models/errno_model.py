"""The errno fault model: the original libc-errno axes behind the
plugin interface.

The axes match the CLI's historical default space (``function`` ×
``call``, with ``call=0`` reserved as the explicit no-injection point)
and compilation is :func:`~repro.injection.libfi.atomic_for`'s
defaulting rules, shared with the multi-fault injector.  This is the
only single-fault errno injector: ``ModelInjector("errno")`` is what
``TargetRunner`` defaults to, and the frozen digests in
``tests/test_faultmodel_conformance.py`` pin its campaigns to the
pre-plugin injector's bytes.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.injection.libfi import atomic_for
from repro.injection.models.base import FaultModel, WorldHook, register_model
from repro.injection.plan import AtomicFault

__all__ = ["ErrnoFaultModel"]


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
        fault = atomic_for(
            attributes.get("function"),
            attributes.get("call", attributes.get("callNumber")),
            attributes.get("errno"),
            attributes.get("retval"),
            attributes.get("persistent", False),
        )
        if fault is None:
            return ((), ())
        return ((fault,), ())


register_model("errno", ErrnoFaultModel)
