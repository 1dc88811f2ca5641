"""Faults: points in a fault space.

A fault φ is a vector of attribute values ``<α_1, ..., α_N>`` (§2).  We
carry the attribute *names* with the values so a fault is
self-describing (injector plugins consume the named dict), and we tag
each fault with the label of the subspace it belongs to, since fault
spaces are unions of subspaces (the DSL's ``;``-separated subtypes).

Faults are immutable and hashable — they are keys in the History set
that prevents AFEX from re-executing tests (§3).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Fault", "canonical", "decanonical"]


def canonical(value: object) -> object:
    """JSON-stable view of an attribute value (tuples become lists).

    The one convention every JSON codec of faults shares — cache keys,
    checkpoint payloads — so the same fault has the same bytes wherever
    it is written.
    """
    if isinstance(value, tuple):
        return [canonical(v) for v in value]
    return value


def decanonical(value: object) -> object:
    """Inverse of :func:`canonical`: JSON lists become tuples again."""
    if isinstance(value, list):
        return tuple(decanonical(v) for v in value)
    return value


@dataclass(frozen=True)
class Fault:
    """An immutable point in a fault space."""

    #: label of the subspace this fault belongs to.
    subspace: str
    #: ordered (attribute name, value) pairs, aligned with the subspace axes.
    attributes: tuple[tuple[str, object], ...]

    @classmethod
    def of(cls, subspace: str = "", **attributes: object) -> "Fault":
        """Convenience constructor: ``Fault.of(test=3, function="read")``."""
        return cls(subspace, tuple(attributes.items()))

    def value(self, name: str) -> object:
        """The value of attribute ``name`` (raises KeyError if absent)."""
        for attr_name, attr_value in self.attributes:
            if attr_name == name:
                return attr_value
        raise KeyError(f"fault has no attribute {name!r}")

    def get(self, name: str, default: object = None) -> object:
        for attr_name, attr_value in self.attributes:
            if attr_name == name:
                return attr_value
        return default

    def as_dict(self) -> dict[str, object]:
        """Attribute dict, as consumed by injector plugins."""
        return dict(self.attributes)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.attributes)

    @property
    def values(self) -> tuple:
        return tuple(value for _, value in self.attributes)

    def replace(self, name: str, value: object) -> "Fault":
        """Clone with one attribute changed (Algorithm 1, lines 10-11)."""
        if name not in self.names:
            raise KeyError(f"fault has no attribute {name!r}")
        return Fault(
            self.subspace,
            tuple(
                (n, value if n == name else v) for n, v in self.attributes
            ),
        )

    def __str__(self) -> str:
        attrs = ", ".join(f"{n}={v!r}" for n, v in self.attributes)
        prefix = f"{self.subspace}:" if self.subspace else ""
        return f"<{prefix}{attrs}>"
