"""Fault spaces: unions of hyperrectangular subspaces with holes.

Implements §2 of the paper: a fault space Φ is spanned by totally
ordered axes (Φ = X₁ × ... × X_N), may be a union of such products (the
DSL's ``;``-separated subspaces), and may contain *holes* — invalid
attribute combinations, expressed here as a validity predicate.

Also implements the analysis tools of §2:

* Manhattan distance δ between faults (within one subspace);
* D-vicinities (all faults within distance D);
* the relative linear density ρ — the structure metric that quantifies
  how rewarding it is to walk along one axis versus a random direction.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterator, Sequence
from math import prod

from repro.core.axis import Axis
from repro.core.fault import Fault
from repro.errors import FaultSpaceError
from repro.util.rng import ensure_rng

__all__ = ["Subspace", "FaultSpace"]


class Subspace:
    """One hyperrectangle: a labelled Cartesian product of axes."""

    def __init__(
        self,
        label: str,
        axes: Sequence[Axis],
        valid: Callable[[dict[str, object]], bool] | None = None,
    ) -> None:
        if not axes:
            raise FaultSpaceError(f"subspace {label!r} needs at least one axis")
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise FaultSpaceError(
                f"subspace {label!r} has duplicate axis names: {names}"
            )
        self.label = label
        self.axes: tuple[Axis, ...] = tuple(axes)
        #: the axes' names, in order: the attribute names of every fault
        #: of this subspace.
        self.axis_names: tuple[str, ...] = tuple(names)
        self._positions = {name: i for i, name in enumerate(names)}
        #: validity predicate; points where it returns False are holes.
        self.valid = valid

    # -- geometry ------------------------------------------------------------

    def axis(self, name: str) -> Axis:
        return self.axes[self.position_of(name)]

    def position_of(self, name: str) -> int:
        """Where axis ``name`` sits in :attr:`axes` (and in a fault)."""
        position = self._positions.get(name)
        if position is None:
            raise FaultSpaceError(
                f"subspace {self.label!r} has no axis {name!r}"
            )
        return position

    def size(self) -> int:
        """Number of grid points (holes included — they are addressable)."""
        return prod(len(a) for a in self.axes)

    # -- fault <-> index vector ----------------------------------------------------

    def fault_at(self, indices: Sequence[int]) -> Fault:
        if len(indices) != len(self.axes):
            raise FaultSpaceError(
                f"subspace {self.label!r} expects {len(self.axes)} indices, "
                f"got {len(indices)}"
            )
        return Fault(
            self.label,
            tuple(
                (axis.name, axis.value_at(i))
                for axis, i in zip(self.axes, indices)
            ),
        )

    def indices_of(self, fault: Fault) -> tuple[int, ...]:
        if fault.subspace != self.label:
            raise FaultSpaceError(
                f"fault belongs to subspace {fault.subspace!r}, "
                f"not {self.label!r}"
            )
        return tuple(
            self.axis(name).index_of(value) for name, value in fault.attributes
        )

    def contains(self, fault: Fault) -> bool:
        attributes = fault.attributes
        if fault.subspace != self.label or len(attributes) != len(self.axes):
            return False
        for axis, (name, value) in zip(self.axes, attributes):
            if name != axis.name or value not in axis:
                return False
        return not self.is_hole(fault)

    def is_hole(self, fault: Fault) -> bool:
        if self.valid is None:
            return False
        return not self.valid(fault.as_dict())

    # -- sampling / enumeration -------------------------------------------------------

    def random_fault(self, rng: random.Random, max_tries: int = 256) -> Fault:
        """Uniformly sample a valid fault (rejection-sampling over holes)."""
        for _ in range(max_tries):
            fault = self.fault_at([rng.randrange(len(a)) for a in self.axes])
            if not self.is_hole(fault):
                return fault
        raise FaultSpaceError(
            f"subspace {self.label!r}: could not sample a valid fault in "
            f"{max_tries} tries — is the space almost entirely holes?"
        )

    def enumerate(self) -> Iterator[Fault]:
        """All valid faults, in row-major axis order."""
        for indices in itertools.product(*(range(len(a)) for a in self.axes)):
            fault = self.fault_at(indices)
            if not self.is_hole(fault):
                yield fault

    # -- transformations ---------------------------------------------------------------

    def with_axis(self, axis: Axis) -> "Subspace":
        """Replace the axis with the same name (shuffle/trim helpers)."""
        if axis.name not in self._positions:
            raise FaultSpaceError(
                f"subspace {self.label!r} has no axis {axis.name!r}"
            )
        return Subspace(
            self.label,
            tuple(axis if a.name == axis.name else a for a in self.axes),
            self.valid,
        )


class FaultSpace:
    """A union of subspaces — the full Φ the explorer navigates."""

    def __init__(self, subspaces: Sequence[Subspace]) -> None:
        if not subspaces:
            raise FaultSpaceError("a fault space needs at least one subspace")
        labels = [s.label for s in subspaces]
        if len(set(labels)) != len(labels):
            raise FaultSpaceError(f"duplicate subspace labels: {labels}")
        self.subspaces: tuple[Subspace, ...] = tuple(subspaces)
        self._by_label = {s.label: s for s in self.subspaces}

    @classmethod
    def product(
        cls,
        label: str = "",
        valid: Callable[[dict[str, object]], bool] | None = None,
        **axes: Sequence[object],
    ) -> "FaultSpace":
        """Single-subspace space from keyword axes.

        >>> space = FaultSpace.product(test=range(1, 30),
        ...                            function=["malloc", "read"],
        ...                            call=[0, 1, 2])
        """
        built = [Axis(name, values) for name, values in axes.items()]
        return cls([Subspace(label, built, valid)])

    # -- structure -----------------------------------------------------------

    def subspace(self, label: str) -> Subspace:
        sub = self._by_label.get(label)
        if sub is None:
            raise FaultSpaceError(f"no subspace labelled {label!r}")
        return sub

    def subspace_of(self, fault: Fault) -> Subspace:
        return self.subspace(fault.subspace)

    def size(self) -> int:
        return sum(s.size() for s in self.subspaces)

    def contains(self, fault: Fault) -> bool:
        sub = self._by_label.get(fault.subspace)
        return sub is not None and sub.contains(fault)

    def axis_names(self) -> tuple[str, ...]:
        """Union of axis names across subspaces (stable order)."""
        seen: dict[str, None] = {}
        for sub in self.subspaces:
            for name in sub.axis_names:
                seen.setdefault(name, None)
        return tuple(seen)

    # -- sampling / enumeration ------------------------------------------------

    def random_fault(self, rng: random.Random | int | None = None) -> Fault:
        """Sample uniformly across the union (subspaces weighted by size)."""
        rng = ensure_rng(rng)
        total = self.size()
        pick = rng.randrange(total)
        for sub in self.subspaces:
            if pick < sub.size():
                return sub.random_fault(rng)
            pick -= sub.size()
        raise AssertionError("unreachable")  # pragma: no cover

    def enumerate(self) -> Iterator[Fault]:
        for sub in self.subspaces:
            yield from sub.enumerate()

    # -- distance and vicinity ------------------------------------------------------

    def distance(self, a: Fault, b: Fault) -> int:
        """Manhattan distance δ(a, b); defined within one subspace (§2)."""
        if a.subspace != b.subspace:
            raise FaultSpaceError(
                "Manhattan distance is defined within a single subspace; "
                f"got {a.subspace!r} and {b.subspace!r}"
            )
        sub = self.subspace_of(a)
        ia, ib = sub.indices_of(a), sub.indices_of(b)
        return sum(abs(x - y) for x, y in zip(ia, ib))

    def vicinity(self, fault: Fault, radius: int) -> Iterator[Fault]:
        """All valid faults within Manhattan distance ``radius`` of ``fault``.

        The D-vicinity of §2, including ``fault`` itself.
        """
        if radius < 0:
            raise FaultSpaceError("vicinity radius must be non-negative")
        sub = self.subspace_of(fault)
        center = sub.indices_of(fault)
        ranges = []
        for axis, c in zip(sub.axes, center):
            low = max(0, c - radius)
            high = min(len(axis) - 1, c + radius)
            ranges.append(range(low, high + 1))
        for indices in itertools.product(*ranges):
            if sum(abs(i - c) for i, c in zip(indices, center)) <= radius:
                candidate = sub.fault_at(indices)
                if not sub.is_hole(candidate):
                    yield candidate

    def relative_linear_density(
        self,
        fault: Fault,
        axis_name: str,
        impact: Callable[[Fault], float],
        radius: int | None = None,
    ) -> float:
        """The structure metric ρ of §2.

        ρ = (average impact along the ``axis_name`` line through
        ``fault``) / (average impact over the whole space — or, when
        ``radius`` is given, over the D-vicinity of ``fault``, which is
        what's practical for large spaces).

        ρ > 1 means walking along this axis encounters more high-impact
        faults than a random direction.
        """
        sub = self.subspace_of(fault)
        axis = sub.axis(axis_name)
        center = sub.indices_of(fault)
        axis_pos = sub.axis_names.index(axis_name)

        line: list[Fault] = []
        for i in range(len(axis)):
            indices = list(center)
            indices[axis_pos] = i
            candidate = sub.fault_at(indices)
            if not sub.is_hole(candidate):
                line.append(candidate)
        if radius is not None:
            line = [f for f in line if self.distance(fault, f) <= radius]

        if radius is None:
            reference: Iterator[Fault] = sub.enumerate()
        else:
            reference = self.vicinity(fault, radius)

        line_impacts = [impact(f) for f in line]
        reference_impacts = [impact(f) for f in reference]
        if not line_impacts or not reference_impacts:
            return 0.0
        reference_avg = sum(reference_impacts) / len(reference_impacts)
        if reference_avg == 0:
            return 0.0
        return (sum(line_impacts) / len(line_impacts)) / reference_avg

    # -- transformations ----------------------------------------------------------------

    def shuffle_axis(self, axis_name: str, rng: random.Random | int | None) -> "FaultSpace":
        """Shuffle ``axis_name``'s value order in every subspace having it.

        The Table 4 ablation: the *set* of faults is unchanged, but any
        structure along that axis is destroyed, so locality-exploiting
        search degrades toward random along it.
        """
        rng = ensure_rng(rng)
        replaced = False
        new_subspaces = []
        for sub in self.subspaces:
            if axis_name in sub.axis_names:
                new_subspaces.append(sub.with_axis(sub.axis(axis_name).shuffled(rng)))
                replaced = True
            else:
                new_subspaces.append(sub)
        if not replaced:
            raise FaultSpaceError(f"no subspace has an axis named {axis_name!r}")
        return FaultSpace(new_subspaces)

    def restrict_axis(self, axis_name: str, keep: Sequence[object]) -> "FaultSpace":
        """Trim an axis to a known-relevant subset (§7.5 domain knowledge)."""
        replaced = False
        new_subspaces = []
        for sub in self.subspaces:
            if axis_name in sub.axis_names:
                new_subspaces.append(
                    sub.with_axis(sub.axis(axis_name).restricted(keep))
                )
                replaced = True
            else:
                new_subspaces.append(sub)
        if not replaced:
            raise FaultSpaceError(f"no subspace has an axis named {axis_name!r}")
        return FaultSpace(new_subspaces)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{s.label or '<anon>'}:{'x'.join(str(len(a)) for a in s.axes)}"
            for s in self.subspaces
        )
        return f"FaultSpace({parts}; {self.size()} faults)"
