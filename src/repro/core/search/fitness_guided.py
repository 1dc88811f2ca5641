"""Algorithm 1: fitness-guided test generation.

A faithful implementation of the paper's §3, including the machinery the
pseudo-code delegates to prose ("Execution of tests, computation of
fitness and sensitivity, and aging occur outside this algorithm"):

* an initial random batch seeds Qpriority (AFEX step 1);
* parents are sampled from Qpriority proportionally to fitness
  (lines 1-4);
* the mutated attribute is chosen proportionally to normalized
  sensitivity (lines 5-6);
* the new value is drawn from a discrete Gaussian centred on the old
  value with σ = |A_i|/5 (lines 7-9);
* the offspring is deduplicated against History/Qpending (lines 12-14);
* fitness ages multiplicatively each step, and exhausted candidates are
  retired from Qpriority;
* an optional *fitness weight* hook implements the §7.4 result-quality
  feedback loop (redundancy-weighted fitness).

The ablation switches (``gaussian``, ``use_sensitivity``, ``aging``)
exist so benchmarks can quantify each ingredient's contribution — the
design-choice ablations DESIGN.md commits to.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.core.fault import Fault
from repro.core.mutation import (
    DEFAULT_SIGMA_FACTOR,
    MAX_GAUSSIAN_DRAWS,
    sample_uniform_index,
)
from repro.core.queues import Candidate, PriorityQueue
from repro.core.search.base import SearchStrategy
from repro.core.sensitivity import SensitivityTracker
from repro.errors import FaultSpaceError, SearchError
from repro.sim.process import RunResult

__all__ = ["FitnessGuidedSearch"]

#: attempts at generating a novel offspring before falling back to random.
_MAX_GENERATION_TRIES = 200

#: type of the §7.4 feedback hook: (fault, result, raw_impact) -> fitness.
FitnessWeight = Callable[[Fault, RunResult, float], float]


class FitnessGuidedSearch(SearchStrategy):
    """Stochastic beam search with sensitivity and Gaussian mutation."""

    name = "fitness"

    def __init__(
        self,
        initial_batch: int = 25,
        priority_capacity: int = 50,
        sensitivity_window: int = 20,
        sensitivity_floor: float = 0.05,
        sigma_factor: float = DEFAULT_SIGMA_FACTOR,
        aging_decay: float = 0.97,
        retire_threshold: float = 0.25,
        gaussian: bool = True,
        use_sensitivity: bool = True,
        aging: bool = True,
        fitness_weight: FitnessWeight | None = None,
        use_novelty: bool = False,
        adaptive_sigma: bool = False,
        sigma_shrink: float = 0.93,
        sigma_grow: float = 1.04,
        sigma_bounds: tuple[float, float] = (0.05, 0.5),
        initial_seeds: tuple[Fault, ...] = (),
        eviction: str = "probabilistic",
    ) -> None:
        super().__init__()
        if initial_batch < 1:
            raise SearchError("initial_batch must be >= 1")
        if not sigma_bounds[0] < sigma_bounds[1]:
            raise SearchError(f"invalid sigma bounds {sigma_bounds}")
        self.initial_batch = initial_batch
        self.priority_capacity = priority_capacity
        self.sensitivity_window = sensitivity_window
        self.sensitivity_floor = sensitivity_floor
        self.sigma_factor = sigma_factor
        self.aging_decay = aging_decay
        self.retire_threshold = retire_threshold
        self.gaussian = gaussian
        self.use_sensitivity = use_sensitivity
        self.aging = aging
        self.fitness_weight = fitness_weight
        #: §7.4 live feedback: when True, the novelty signal streamed
        #: from the online clustering engine scales fitness directly —
        #: redundant results decay toward zero weight without the
        #: all-pairs scan the batch ``RedundancyFeedback`` hook pays.
        self.use_novelty = use_novelty
        #: §3 future work: "σ can also be computed dynamically, based on
        #: the evolution of tests in the currently explored vicinity".
        #: When enabled, each axis's σ factor shrinks while mutations
        #: along it keep paying off (exploit the local ridge) and grows
        #: while they don't (widen the net).
        self.adaptive_sigma = adaptive_sigma
        self.sigma_shrink = sigma_shrink
        self.sigma_grow = sigma_grow
        self.sigma_bounds = sigma_bounds
        #: §4: results of static analysis (or any prior knowledge) can
        #: seed the initial generation phase — these faults are proposed
        #: before any random probes, so the search "starts off with
        #: highly relevant tests" and learns the space's structure
        #: sooner.
        self.initial_seeds = tuple(initial_seeds)
        #: Qpriority eviction policy (probabilistic per the paper, or the
        #: strict-min ablation baseline).
        self.eviction = eviction
        # populated on bind():
        self._qpriority: PriorityQueue | None = None
        self._sensitivity: SensitivityTracker | None = None
        self._pending: deque[Fault] = deque()
        self._mutated_axis: dict[Fault, str] = {}
        #: parent fitness at proposal time, for the adaptive-σ comparison.
        self._parent_fitness: dict[Fault, float] = {}
        self._sigma_factors: dict[str, float] = {}
        #: the mutation kernel of each subspace of the bound space, by
        #: label (see :meth:`_compile`).
        self._kernels: dict[str, tuple[tuple[str, ...], tuple]] = {}
        self._proposed = 0
        #: bound-state cursor into the immutable ``initial_seeds`` tuple.
        self._seed_cursor = 0
        #: batch telemetry: size of each generation emitted via
        #: :meth:`propose_batch` (feedback-staleness accounting).
        self.batch_sizes: list[int] = []

    def bind(self, space, rng) -> None:
        super().bind(space, rng)
        self._qpriority = PriorityQueue(self.priority_capacity, rng,
                                        eviction=self.eviction)
        self._sensitivity = SensitivityTracker(
            space.axis_names(),
            window=self.sensitivity_window,
            floor=self.sensitivity_floor,
        )
        self._sigma_factors = {
            name: self.sigma_factor for name in space.axis_names()
        }
        self._kernels = {}
        self._seed_cursor = 0

    # -- generation -------------------------------------------------------------

    def propose(self) -> Fault | None:
        space, rng = self._require_bound()
        if self._pending:
            return self._pending.popleft()
        seed = self._next_seed()
        if seed is not None:
            self._proposed += 1
            return seed
        if self._proposed < self.initial_batch:
            fault = self._random_unseen()
            if fault is not None:
                self._proposed += 1
            return fault
        fault = self._generate_offspring()
        if fault is None:
            # No parents or the vicinity is saturated: widen with a
            # random probe (keeps coverage growing, per §3's aging goal).
            fault = self._random_unseen()
        if fault is not None:
            self._proposed += 1
        return fault

    def propose_batch(self, k: int) -> list[Fault]:
        """One generation of Algorithm 1: ``k`` offspring, no feedback.

        This is precisely the parallelism the paper's prototype exploits
        on EC2 (§6.1): stochastic beam search samples each parent from
        the *current* Qpriority, so ``k`` offspring can be drawn before
        any of their fitnesses are observed.  All ``k`` candidates are
        deduplicated against the shared History/Qpending as they are
        generated, and the batch mixes seeds, initial random probes, and
        offspring exactly as serial proposal would — ``propose_batch(1)``
        is bit-identical to :meth:`propose`.  Larger ``k`` trades
        feedback freshness for dispatch width: parents are up to one
        batch staler than under serial proposal (recorded in
        :attr:`batch_sizes` for the staleness/throughput analyses).
        """
        if k < 1:
            raise SearchError(f"batch size must be >= 1, got {k}")
        batch: list[Fault] = []
        for _ in range(k):
            fault = self.propose()
            if fault is None:
                break
            batch.append(fault)
        if batch:
            self.batch_sizes.append(len(batch))
        return batch

    def _generate_offspring(self) -> Fault | None:
        """Lines 1-14 of Algorithm 1: mutate sampled parents until an
        offspring is new to History and no hole, or the tries run out.

        A try costs its draws whatever it ends in, and on coreutils'
        small space more than half of them end as repeats, so a try
        works on keys: it clones the parent's attribute tuple with the
        mutated pair, probes History with the plain ``(label,
        attributes)`` tuple a ``Fault`` hashes and compares as, and
        builds a ``Fault`` only for a novel offspring.  Its draws are
        :func:`~repro.core.mutation.mutate_fault`'s, in the same order.
        """
        space, rng = self._require_bound()
        queue = self._queue()
        if len(queue) == 0:
            return None
        history = self.history
        sample_parent = queue.sample_parent
        kernels = self._kernels
        draw_for = self._tracker().draw_for if self.use_sensitivity else None
        gaussian = self.gaussian
        gauss = rng.gauss
        sigma_factor = self.sigma_factor
        # Adaptive σ factors move on feedback, never within a generation.
        sigma_factors = self._sigma_factors if self.adaptive_sigma else None
        for _ in range(_MAX_GENERATION_TRIES):
            parent = sample_parent()
            label, attributes = parent.fault
            kernel = kernels.get(label)
            if kernel is None:
                kernel = kernels[label] = self._compile(space, label)
            axes, compiled = kernel
            if not axes:
                continue
            # Line 5-6: sensitivity-proportional axis selection.
            if draw_for is not None and len(axes) > 1:
                axis = compiled[draw_for(axes).index(rng)]
            else:
                axis = rng.choice(compiled)
            axis_name, position, index, cardinality, values = axis
            if (position >= len(attributes)
                    or attributes[position][0] != axis_name):
                raise FaultSpaceError(
                    f"{parent.fault} is not laid out like subspace {label!r}"
                )
            old_index = index.get(attributes[position][1])
            if old_index is None:
                raise FaultSpaceError(
                    f"axis {axis_name!r} has no value "
                    f"{attributes[position][1]!r}"
                )
            # Lines 7-9: sample_gaussian_index, or the uniform ablation.
            if gaussian:
                factor = (sigma_factor if sigma_factors is None
                          else sigma_factors.get(axis_name, sigma_factor))
                sigma = factor * cardinality
                if sigma < 0.5:
                    sigma = 0.5  # keep a usable spread on tiny axes
                for _ in range(MAX_GAUSSIAN_DRAWS):
                    new_index = round(gauss(old_index, sigma))
                    if 0 <= new_index < cardinality and new_index != old_index:
                        break
                else:
                    new_index = sample_uniform_index(rng, old_index, cardinality)
            else:
                new_index = sample_uniform_index(rng, old_index, cardinality)
            mutated = (attributes[:position]
                       + ((axis_name, values[new_index]),)
                       + attributes[position + 1:])
            if (label, mutated) in history:
                continue  # already proposed
            offspring = Fault(label, mutated)
            if not space.contains(offspring):
                continue  # landed in a hole
            history.add(offspring)
            self._mutated_axis[offspring] = axis_name
            if self.adaptive_sigma:
                self._parent_fitness[offspring] = parent.fitness
            return offspring
        return None

    @staticmethod
    def _compile(space, label: str) -> tuple[tuple[str, ...], tuple]:
        """Subspace ``label``'s mutable axis names, and per such axis
        ``(name, position, value -> index, cardinality, values)``."""
        compiled = tuple(
            (axis.name, position, axis.positions, len(axis), axis.values)
            for position, axis in enumerate(space.subspace(label).axes)
            if len(axis) > 1
        )
        return tuple(entry[0] for entry in compiled), compiled

    def _next_seed(self) -> Fault | None:
        """The next unexecuted static-analysis seed, if any remain.

        ``initial_seeds`` is configuration and stays immutable; the
        consumption cursor is bound state (reset on :meth:`bind`), so a
        strategy instance reused across sessions replays its seeds
        instead of silently starting with none.
        """
        space, _ = self._require_bound()
        while self._seed_cursor < len(self.initial_seeds):
            seed = self.initial_seeds[self._seed_cursor]
            self._seed_cursor += 1
            if seed in self.history or not space.contains(seed):
                continue
            self.history.add(seed)
            return seed
        return None

    # -- feedback ----------------------------------------------------------------

    def observe(
        self,
        fault: Fault,
        impact: float,
        result: RunResult,
        novelty: float | None = None,
    ) -> None:
        queue = self._queue()
        fitness = impact
        if self.fitness_weight is not None:
            fitness = self.fitness_weight(fault, result, impact)
        if self.use_novelty and novelty is not None:
            # §7.4 online: a redundant result (low novelty) seeds fewer
            # offspring; a brand-new cluster keeps its full fitness.
            fitness *= novelty
        mutated_axis = self._mutated_axis.pop(fault, None)
        queue.add(Candidate(fault, impact, fitness, mutated_axis))
        if mutated_axis is not None:
            self._tracker().record(mutated_axis, fitness)
            if self.adaptive_sigma:
                self._adapt_sigma(mutated_axis, fault, fitness)
        if self.aging:
            queue.age(self.aging_decay, self.retire_threshold)

    def _adapt_sigma(self, axis_name: str, fault: Fault, fitness: float) -> None:
        """Shrink σ while the local ridge keeps paying, grow otherwise."""
        parent_fitness = self._parent_fitness.pop(fault, None)
        if parent_fitness is None:
            return
        low, high = self.sigma_bounds
        current = self._sigma_factors.get(axis_name, self.sigma_factor)
        if fitness >= parent_fitness and fitness > 0:
            current *= self.sigma_shrink
        else:
            current *= self.sigma_grow
        self._sigma_factors[axis_name] = min(max(current, low), high)

    # -- introspection ---------------------------------------------------------------

    def sensitivities(self) -> dict[str, float]:
        """Current per-axis sensitivity (used by §7.3-style analyses)."""
        return self._tracker().sensitivities()

    def sigma_factors(self) -> dict[str, float]:
        """Current per-axis σ factors (fixed unless adaptive_sigma)."""
        if not self._sigma_factors:
            raise SearchError("strategy not bound")
        return dict(self._sigma_factors)

    def priority_snapshot(self) -> tuple[Candidate, ...]:
        return self._queue().items

    def _queue(self) -> PriorityQueue:
        if self._qpriority is None:
            raise SearchError("strategy not bound")
        return self._qpriority

    def _tracker(self) -> SensitivityTracker:
        if self._sensitivity is None:
            raise SearchError("strategy not bound")
        return self._sensitivity
