"""Gaussian attribute mutation (Algorithm 1, lines 7-11).

New attribute values are drawn from a discrete approximation of a
Gaussian centred at the parent's value index with standard deviation
σ = |A_i| / 5 (the paper's evaluation choice; the factor is a
parameter here so the σ ablation bench can vary it).  The Gaussian
"favours φ's closest neighbors without completely dismissing points that
are further away" — contrast :func:`sample_uniform_index`, the naive
alternative used as an ablation baseline.
"""

from __future__ import annotations

import random

from repro.core.fault import Fault
from repro.core.faultspace import FaultSpace
from repro.errors import FaultSpaceError, SearchError

__all__ = [
    "sample_gaussian_index",
    "sample_uniform_index",
    "mutate_fault",
    "DEFAULT_SIGMA_FACTOR",
    "MAX_GAUSSIAN_DRAWS",
]

#: σ = |A_i| / 5, as chosen for the paper's evaluation (§3).
DEFAULT_SIGMA_FACTOR = 0.2

#: Gaussian draws rejected before :func:`sample_gaussian_index` falls
#: back to a uniform one.
MAX_GAUSSIAN_DRAWS = 64


def sample_gaussian_index(
    rng: random.Random,
    old_index: int,
    cardinality: int,
    sigma: float,
) -> int:
    """A new index != old_index, Gaussian-distributed around it.

    Draws are rounded to the nearest integer and rejected while outside
    ``[0, cardinality)`` or equal to ``old_index``; after a bounded
    number of rejections we fall back to a uniform draw so the function
    always terminates (relevant for cardinality-2 axes with tiny σ).
    """
    if cardinality < 2:
        raise SearchError("cannot mutate along an axis with a single value")
    if not 0 <= old_index < cardinality:
        raise SearchError(
            f"old index {old_index} outside [0, {cardinality})"
        )
    sigma = max(sigma, 0.5)  # keep a usable spread on tiny axes
    for _ in range(MAX_GAUSSIAN_DRAWS):
        draw = round(rng.gauss(old_index, sigma))
        if 0 <= draw < cardinality and draw != old_index:
            return draw
    return sample_uniform_index(rng, old_index, cardinality)


def sample_uniform_index(
    rng: random.Random, old_index: int, cardinality: int
) -> int:
    """Uniform new index != old_index (the no-locality baseline)."""
    if cardinality < 2:
        raise SearchError("cannot mutate along an axis with a single value")
    draw = rng.randrange(cardinality - 1)
    return draw if draw < old_index else draw + 1


def mutate_fault(
    space: FaultSpace,
    fault: Fault,
    axis_name: str,
    rng: random.Random,
    sigma_factor: float = DEFAULT_SIGMA_FACTOR,
    gaussian: bool = True,
) -> Fault:
    """Clone ``fault`` with ``axis_name`` re-sampled around its old value.

    The returned fault may be a hole; callers (the search strategy)
    re-check validity and retry, since hole shapes are arbitrary.
    A fault's attributes are aligned with its subspace's axes, so the
    mutated one is addressed by its axis's position.
    """
    subspace = space.subspace_of(fault)
    position = subspace.position_of(axis_name)
    axis = subspace.axes[position]
    attributes = fault.attributes
    if position >= len(attributes) or attributes[position][0] != axis_name:
        raise FaultSpaceError(
            f"{fault} is not laid out like subspace {subspace.label!r}"
        )
    old_index = axis.index_of(attributes[position][1])
    cardinality = len(axis)
    if gaussian:
        new_index = sample_gaussian_index(
            rng, old_index, cardinality, sigma_factor * cardinality
        )
    else:
        new_index = sample_uniform_index(rng, old_index, cardinality)
    value = axis.value_at(new_index)
    return Fault(
        fault.subspace,
        attributes[:position] + ((axis_name, value),) + attributes[position + 1:],
    )


def mutable_axes(space: FaultSpace, fault: Fault) -> tuple[str, ...]:
    """Axes of ``fault``'s subspace along which mutation is possible."""
    subspace = space.subspace_of(fault)
    return tuple(a.name for a in subspace.axes if len(a) > 1)
