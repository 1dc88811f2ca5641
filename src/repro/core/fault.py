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

from operator import itemgetter

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


class Fault(tuple):
    """An immutable point in a fault space: the pair ``(subspace, attributes)``.

    A slotted ``tuple``, so hashing and equality run in C.  A fault
    hashes and compares as the plain tuple ``(subspace, attributes)``:
    the proposal loop probes History with that tuple and builds a
    ``Fault`` only for a novel offspring.
    """

    __slots__ = ()

    #: label of the subspace this fault belongs to.
    subspace = property(itemgetter(0))
    #: ordered (attribute name, value) pairs, aligned with the subspace axes.
    attributes = property(itemgetter(1))

    def __new__(
        cls, subspace: str, attributes: tuple[tuple[str, object], ...]
    ) -> "Fault":
        return tuple.__new__(cls, (subspace, attributes))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Fault(subspace={self[0]!r}, attributes={self[1]!r})"

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
        return dict(self[1])

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
