"""Injection plans: which library calls fail, and how.

An :class:`AtomicFault` is one injectable failure — the paper's
``<function, callNumber, errno, retval>`` tuple (§2, Fig. 5).  An
:class:`InjectionPlan` is a *scenario*: a set of atomic faults applied
together during one test execution (the prototype's node manager "breaks
the scenario down into atomic faults", §6).  The evaluation uses
single-fault scenarios, but the plan type supports multi-fault scenarios
exactly as the paper's language does.

The textual format round-trips the paper's Fig. 5 example::

    function malloc errno ENOMEM retval 0 callNumber 23
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import InjectionError
from repro.sim.errnos import Errno

__all__ = ["AtomicFault", "InjectionPlan"]


@dataclass(frozen=True)
class AtomicFault:
    """One injectable library-call failure.

    ``call_number`` is 1-based: ``call_number=5`` fails the fifth call
    the program makes to ``function``.  Three trigger shapes exist:

    * the default fails exactly one call;
    * ``persistent=True`` also fails every later call (LFI's "trigger
      once, fail forever" mode);
    * ``until=N`` fails every call in ``[call_number, N]`` — the range
      trigger behind the DSL's ``< lo , hi >`` sub-interval axes (§6.2).
    """

    function: str
    call_number: int
    errno: Errno
    retval: int
    persistent: bool = False
    until: int | None = None

    def __post_init__(self) -> None:
        if self.call_number < 1:
            raise InjectionError(
                f"call_number must be >= 1, got {self.call_number}"
            )
        if not self.function:
            raise InjectionError("function name must be non-empty")
        if self.until is not None:
            if self.until < self.call_number:
                raise InjectionError(
                    f"until={self.until} precedes callNumber={self.call_number}"
                )
            if self.persistent:
                raise InjectionError("choose either persistent or until, not both")

    def fires_at(self, call_number: int) -> bool:
        """Does this fault fire at the given call cardinality?"""
        if self.persistent:
            return call_number >= self.call_number
        if self.until is not None:
            return self.call_number <= call_number <= self.until
        return call_number == self.call_number

    def format(self) -> str:
        """Render in the Fig. 5 scenario syntax."""
        text = (
            f"function {self.function} errno {self.errno.name} "
            f"retval {self.retval} callNumber {self.call_number}"
        )
        if self.persistent:
            text += " persistent 1"
        if self.until is not None:
            text += f" callUntil {self.until}"
        return text

    @classmethod
    def parse(cls, text: str) -> "AtomicFault":
        """Parse the Fig. 5 scenario syntax (one atomic fault)."""
        tokens = text.split()
        if len(tokens) % 2 != 0:
            raise InjectionError(f"odd token count in fault description: {text!r}")
        fields = dict(zip(tokens[::2], tokens[1::2]))
        required = {"function", "errno", "retval", "callNumber"}
        missing = required - fields.keys()
        if missing:
            raise InjectionError(
                f"fault description missing fields {sorted(missing)}: {text!r}"
            )
        try:
            errno = Errno.from_name(fields["errno"])
        except ValueError as exc:
            raise InjectionError(str(exc)) from None
        try:
            retval = int(fields["retval"])
            call_number = int(fields["callNumber"])
            until = int(fields["callUntil"]) if "callUntil" in fields else None
        except ValueError as exc:
            raise InjectionError(f"bad numeric field in {text!r}: {exc}") from None
        persistent = fields.get("persistent", "0") not in ("0", "false", "")
        return cls(fields["function"], call_number, errno, retval, persistent,
                   until)


@dataclass(frozen=True)
class InjectionPlan:
    """A scenario: the set of atomic faults injected during one test."""

    faults: tuple[AtomicFault, ...]

    @classmethod
    def single(
        cls,
        function: str,
        call_number: int,
        errno: Errno,
        retval: int,
        persistent: bool = False,
    ) -> "InjectionPlan":
        """The common case: a plan with exactly one atomic fault."""
        return cls((AtomicFault(function, call_number, errno, retval, persistent),))

    @classmethod
    def none(cls) -> "InjectionPlan":
        """An empty plan — run the test without injecting anything."""
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.faults

    @cached_property
    def by_function(self) -> dict[str, tuple[AtomicFault, ...]]:
        """``function → its faults`` in plan order, resolved once per plan.

        The one table the interposition path reads (:meth:`lookup` and
        ``SimLibc._enter``): a call to a function the scenario does not
        target is a single dict miss.  Read-only, like the frozen plan.
        """
        table: dict[str, tuple[AtomicFault, ...]] = {}
        for fault in self.faults:
            table[fault.function] = table.get(fault.function, ()) + (fault,)
        return table

    def lookup(self, function: str, call_number: int) -> AtomicFault | None:
        """The fault (if any) that fires for this call — the first in
        plan order when several on ``function`` would."""
        for fault in self.by_function.get(function, ()):
            if fault.fires_at(call_number):
                return fault
        return None

    def functions(self) -> frozenset[str]:
        return frozenset(f.function for f in self.faults)

    def format(self) -> str:
        """Multi-line Fig. 5 format, one atomic fault per line."""
        return "\n".join(f.format() for f in self.faults)

    @classmethod
    def parse(cls, text: str) -> "InjectionPlan":
        """Parse one atomic fault per non-empty line."""
        faults = tuple(
            AtomicFault.parse(line)
            for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")
        )
        return cls(faults)

    def __len__(self) -> int:
        return len(self.faults)
