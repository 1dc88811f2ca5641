"""Basic-block coverage for simulated programs.

The paper's impact metric for coreutils/MySQL combines test outcome with
code coverage (§7, "Fault Space Definition Methodology").  Programs under
test mark coverage explicitly: each interesting straight-line region
calls ``env.cov.hit("module.function.block")``.  A block id is an
arbitrary string; the universe of blocks for a target is whatever the
union of runs observes (benchmarks compute percentages relative to the
blocks an exhaustive run covers, exactly as we can only ever talk about
coverage relative to some baseline for a black box).
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["Coverage"]


class Coverage:
    """Records the set of basic-block ids hit during one run.

    ``cov.hit(block_id)`` marks basic block ``block_id`` as executed.  It
    is the hit set's own ``add``, bound per instance: programs call it on
    nearly every block, and a Python method around it cost more than the
    set insertion it wrapped.
    """

    __slots__ = ("_hits", "hit")

    def __init__(self) -> None:
        self._hits: set[str] = set()
        self.hit = self._hits.add

    def hit_all(self, block_ids: Iterable[str]) -> None:
        self._hits.update(block_ids)

    @property
    def blocks(self) -> frozenset[str]:
        """The blocks hit so far (immutable snapshot)."""
        return frozenset(self._hits)

    def __len__(self) -> int:
        return len(self._hits)

    def __contains__(self, block_id: str) -> bool:
        return block_id in self._hits

    @staticmethod
    def percent(hit: frozenset[str], universe: frozenset[str]) -> float:
        """Coverage percentage of ``hit`` relative to ``universe``."""
        if not universe:
            return 0.0
        return 100.0 * len(hit & universe) / len(universe)
