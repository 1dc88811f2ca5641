"""The three collections of Algorithm 1: Qpriority, Qpending, History.

* :class:`PriorityQueue` — bounded queue of executed high-fitness tests.
  Parents are sampled with probability *proportional* to fitness; when
  full, a victim is dropped with probability *inversely* proportional to
  fitness, so the average fitness in the queue rises over time (§3).
  Retired and evicted tests flow into History.
* :class:`History` — every fault ever executed or enqueued, so AFEX
  never re-executes a test (§3: "it avoids re-executing any tests").
* Qpending is a plain FIFO (``collections.deque``) in the strategy; it
  needs no dedicated type.

Aging (§3): each candidate's fitness decays multiplicatively every
generation step; candidates below the retirement threshold can no longer
have offspring and are dropped.  This is what keeps the search from
orbiting a massive-impact outlier forever.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.fault import Fault
from repro.errors import SearchError

__all__ = ["Candidate", "PriorityQueue", "History"]

#: numerical floor so zero-fitness tests keep a tiny selection chance.
_EPSILON = 1e-9


@dataclass
class Candidate:
    """An executed test living in Qpriority."""

    fault: Fault
    impact: float
    fitness: float
    #: axis mutated to produce this test (None for the random seed batch).
    mutated_axis: str | None = None
    #: bookkeeping: how many aging steps this candidate has survived.
    age: int = 0


class PriorityQueue:
    """Bounded fitness-weighted pool of parent candidates.

    ``eviction`` selects the policy used when the queue is full:

    * ``"probabilistic"`` (the paper's): the victim is *sampled* with
      probability inversely proportional to fitness — low-fitness tests
      usually go, but nothing is guaranteed safe;
    * ``"strict-min"`` (ablation baseline): always drop the lowest
      fitness candidate — greedier, loses the diversity that keeps
      mediocre-but-differently-located parents alive.
    """

    def __init__(
        self,
        capacity: int,
        rng: random.Random,
        eviction: str = "probabilistic",
    ) -> None:
        if capacity < 1:
            raise SearchError(f"Qpriority capacity must be >= 1, got {capacity}")
        if eviction not in ("probabilistic", "strict-min"):
            raise SearchError(f"unknown eviction policy {eviction!r}")
        self.capacity = capacity
        self.eviction = eviction
        self._rng = rng
        self._items: list[Candidate] = []
        #: the parent-selection weights and their sum, kept between
        #: ``add``/``age`` (a generation samples many parents off one
        #: unchanged queue); None when the queue has changed.
        self._parent_weights: tuple[list[float], float] | None = None

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    @property
    def items(self) -> tuple[Candidate, ...]:
        return tuple(self._items)

    def add(self, candidate: Candidate) -> Candidate | None:
        """Insert; returns the evicted candidate if the queue was full."""
        evicted = None
        if len(self._items) >= self.capacity:
            evicted = self._evict()
        self._items.append(candidate)
        self._parent_weights = None
        return evicted

    def _evict(self) -> Candidate:
        """Drop one candidate according to the configured policy."""
        if self.eviction == "strict-min":
            index = min(range(len(self._items)),
                        key=lambda i: self._items[i].fitness)
            return self._items.pop(index)
        weights = [1.0 / (c.fitness + _EPSILON) for c in self._items]
        index = self._weighted_index(weights, sum(weights))
        return self._items.pop(index)

    def sample_parent(self) -> Candidate:
        """Algorithm 1 lines 1-4: fitness-proportional parent selection."""
        if not self._items:
            raise SearchError("Qpriority is empty; cannot sample a parent")
        if self._parent_weights is None:
            weights = [c.fitness + _EPSILON for c in self._items]
            self._parent_weights = weights, sum(weights)
        return self._items[self._weighted_index(*self._parent_weights)]

    def _weighted_index(self, weights: list[float], total: float) -> int:
        pick = self._rng.random() * total
        cumulative = 0.0
        for i, w in enumerate(weights):
            cumulative += w
            if pick <= cumulative:
                return i
        return len(weights) - 1

    def age(self, decay: float, retire_threshold: float) -> list[Candidate]:
        """One aging step: decay every fitness; retire the exhausted.

        Returns the retired candidates (they go into History — they were
        executed, so they must never run again, but they can no longer
        be parents).
        """
        if not 0.0 < decay <= 1.0:
            raise SearchError(f"aging decay must be in (0, 1], got {decay}")
        survivors: list[Candidate] = []
        retired: list[Candidate] = []
        for candidate in self._items:
            candidate.fitness *= decay
            candidate.age += 1
            if candidate.fitness < retire_threshold and candidate.age > 1:
                retired.append(candidate)
            else:
                survivors.append(candidate)
        self._items = survivors
        self._parent_weights = None
        return retired

    def mean_fitness(self) -> float:
        if not self._items:
            return 0.0
        return sum(c.fitness for c in self._items) / len(self._items)

    def best(self) -> Candidate | None:
        if not self._items:
            return None
        return max(self._items, key=lambda c: c.fitness)


@dataclass
class History:
    """Every fault executed or scheduled — the dedup set of Algorithm 1."""

    _seen: set[Fault] = field(default_factory=set)

    def add(self, fault: Fault) -> None:
        self._seen.add(fault)

    def __contains__(self, fault: Fault) -> bool:
        return fault in self._seen

    def __len__(self) -> int:
        return len(self._seen)
