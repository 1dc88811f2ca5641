"""Fault-space axes: totally ordered attribute value sets.

§2 of the paper: each fault attribute takes values from a finite set
``A_i`` with a total order ``≺_i``, which lays the values out along an
axis and lets faults be addressed by *index vectors*.  The order matters
enormously to the search: the Gaussian mutation assumes neighbouring
values are behaviourally similar, so orders should group related values
(the paper: "group POSIX functions by functionality").

:meth:`Axis.shuffled` produces the same value set under a random order —
the structure-destroying transformation behind the paper's Table 4
ablation.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

from repro.errors import FaultSpaceError

__all__ = ["Axis"]


class Axis:
    """A named, totally ordered, finite set of attribute values."""

    __slots__ = ("name", "_values", "_index")

    def __init__(self, name: str, values: Iterable[object]) -> None:
        self.name = name
        self._values: tuple = tuple(values)
        if not self._values:
            raise FaultSpaceError(f"axis {name!r} must have at least one value")
        self._index: dict = {}
        for i, value in enumerate(self._values):
            if value in self._index:
                raise FaultSpaceError(
                    f"axis {name!r} has duplicate value {value!r}"
                )
            self._index[value] = i

    @classmethod
    def from_range(cls, name: str, low: int, high: int) -> "Axis":
        """An integer axis covering ``[low, high]`` inclusive."""
        if high < low:
            raise FaultSpaceError(f"axis {name!r}: empty range [{low}, {high}]")
        return cls(name, range(low, high + 1))

    @classmethod
    def from_subintervals(cls, name: str, low: int, high: int) -> "Axis":
        """An axis whose values are the sub-intervals of ``[low, high]``.

        Implements the DSL's ``< low , high >`` interval kind, which is
        "sampled for entire sub-intervals" (§6.2).  Values are
        ``(lo, hi)`` pairs in lexicographic order; there are
        ``n*(n+1)/2`` of them for a range of n integers.
        """
        if high < low:
            raise FaultSpaceError(f"axis {name!r}: empty range [{low}, {high}]")
        values = [
            (lo, hi)
            for lo in range(low, high + 1)
            for hi in range(lo, high + 1)
        ]
        return cls(name, values)

    # -- value/index mapping -------------------------------------------------

    @property
    def values(self) -> tuple:
        return self._values

    @property
    def positions(self) -> dict:
        """value -> index: the mapping :meth:`index_of` reads (read only)."""
        return self._index

    def index_of(self, value: object) -> int:
        index = self._index.get(value)
        if index is None:
            raise FaultSpaceError(f"axis {self.name!r} has no value {value!r}")
        return index

    def value_at(self, index: int) -> object:
        if not 0 <= index < len(self._values):
            raise FaultSpaceError(
                f"axis {self.name!r}: index {index} out of range "
                f"[0, {len(self._values) - 1}]"
            )
        return self._values[index]

    def __contains__(self, value: object) -> bool:
        return value in self._index

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Axis):
            return NotImplemented
        return self.name == other.name and self._values == other._values

    def __hash__(self) -> int:
        return hash((self.name, self._values))

    # -- transformations ----------------------------------------------------------

    def shuffled(self, rng: random.Random) -> "Axis":
        """Same values, random order: destroys structure along this axis."""
        values = list(self._values)
        rng.shuffle(values)
        return Axis(self.name, values)

    def restricted(self, keep: Sequence[object]) -> "Axis":
        """Trim the axis to ``keep`` (in this axis's order).

        This is the "domain knowledge" transformation of §7.5: a
        developer who knows the target only calls 9 libc functions trims
        the function axis accordingly.
        """
        keep_set = set(keep)
        unknown = keep_set - set(self._values)
        if unknown:
            raise FaultSpaceError(
                f"axis {self.name!r}: cannot keep unknown values {sorted(map(repr, unknown))}"
            )
        return Axis(self.name, [v for v in self._values if v in keep_set])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(repr(v) for v in self._values[:4])
        suffix = ", ..." if len(self._values) > 4 else ""
        return f"Axis({self.name!r}, [{preview}{suffix}] x{len(self._values)})"
