"""Fault-injector plugin interface.

In the AFEX prototype, each node manager holds "a set of plugins that
convert fault descriptions from the AFEX-internal representation to
concrete configuration files and parameters for the injectors" (§6.1).
The internal representation here is an *attribute dict* — the named
attribute values of a fault-space point, e.g.::

    {"test": 7, "function": "malloc", "call": 2, "errno": "ENOMEM"}

A :class:`FaultInjector` turns such a dict into an
:class:`~repro.injection.plan.InjectionPlan` for the simulated libc.
New injector kinds (bit-flippers, config-error injectors, ...) plug in
by subclassing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.injection.plan import InjectionPlan

__all__ = ["FaultInjector", "MemoizedInjector"]


class FaultInjector(ABC):
    """Converts AFEX-internal fault descriptions into injection plans."""

    #: part of every result's identity; subclasses must override.
    name: str = ""

    @abstractmethod
    def plan_for(self, attributes: dict[str, object]) -> InjectionPlan:
        """Build the injection plan encoding ``attributes``.

        Returning :meth:`InjectionPlan.none` is legitimate: fault spaces
        may include a "no injection" point (the paper's coreutils space
        uses ``callNumber = 0`` for exactly that).
        """

    def describe(self) -> str:
        return self.name or type(self).__name__


class MemoizedInjector(FaultInjector):
    """``inner``'s plans, compiled once per distinct attribute tuple.

    A plan is a pure function of its attributes, and it is frozen (hooks
    included, see :class:`~repro.injection.models.base.WorldHook`), so
    one plan object may answer every later request for the same
    attributes.  Keys are the attribute items in order, so the memo is
    meant for one fault space's points, whose axes cannot hold two
    values that compare equal (``1`` and ``True``).  It holds one plan
    per distinct point of the non-``test`` axes (209 on the benchmark's
    errno spaces: 19 functions x 11 call numbers) and lives as long as its owner.
    """

    def __init__(self, inner: FaultInjector) -> None:
        self.inner = inner
        self.name = inner.name
        self._plans: dict[tuple, InjectionPlan] = {}

    def plan_for(self, attributes: dict[str, object]) -> InjectionPlan:
        key = tuple(attributes.items())
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self.inner.plan_for(attributes)
        return plan

    def describe(self) -> str:
        return self.inner.describe()
