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
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from repro.core.fault import Fault
from repro.errors import SearchError

__all__ = ["Candidate", "PriorityQueue", "History", "WeightedDraw"]

#: numerical floor so zero-fitness tests keep a tiny selection chance.
_EPSILON = 1e-9


def _scan(weights: list[float], pick: float) -> int:
    """The first index whose running weight sum reaches ``pick``."""
    cumulative = 0.0
    for i, w in enumerate(weights):
        cumulative += w
        if pick <= cumulative:
            return i
    return len(weights) - 1


class WeightedDraw:
    """One weight vector, drawn from many times with one ``random()`` each.

    A draw is the linear scan of :func:`_scan`: ``pick = random() *
    total``, then the first index whose running sum reaches ``pick``.
    The running sums are kept, so a draw is a binary search instead of
    a walk — the same additions in the same order, hence the same floats
    and the same index.  Only non-decreasing sums can be searched, so a
    vector with a negative or NaN weight (or a NaN pick) walks.
    """

    __slots__ = ("weights", "total", "_cumulative", "_last")

    def __init__(self, weights: list[float]) -> None:
        self.weights = weights
        self.total = total = sum(weights)
        # A NaN weight shows in the total, a negative one in the min.
        searchable = bool(weights) and total == total and min(weights) >= 0.0
        #: the running sums; empty when they cannot be searched.
        self._cumulative = list(accumulate(weights)) if searchable else []
        self._last = len(weights) - 1

    def index(self, rng: random.Random) -> int:
        pick = rng.random() * self.total
        cumulative = self._cumulative
        if not cumulative or pick != pick:
            return _scan(self.weights, pick)
        found = bisect_left(cumulative, pick)
        return found if found < self._last else self._last


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
        #: the parent-selection draw, kept between ``add``/``age`` (a
        #: generation samples many parents off one unchanged queue);
        #: None when the queue has changed.
        self._parent_weights: WeightedDraw | None = None

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
        index = _scan(weights, self._rng.random() * sum(weights))
        return self._items.pop(index)

    def sample_parent(self) -> Candidate:
        """Algorithm 1 lines 1-4: fitness-proportional parent selection."""
        if not self._items:
            raise SearchError("Qpriority is empty; cannot sample a parent")
        if self._parent_weights is None:
            self._parent_weights = WeightedDraw(
                [c.fitness + _EPSILON for c in self._items]
            )
        return self._items[self._parent_weights.index(self._rng)]

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


class History(set):
    """Every fault executed or scheduled — the dedup set of Algorithm 1.

    A plain ``set`` of faults, so the proposal loop's membership tests
    and insertions never leave C for a wrapper method.
    """
