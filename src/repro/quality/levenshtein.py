"""Levenshtein edit distance, from scratch (paper ref. [14]).

AFEX compares the stack traces of injected faults with the Levenshtein
distance (§5).  Traces are sequences of frame names, so the distance
operates over arbitrary hashable symbols, not just characters.

Implementation notes: two-row dynamic programming (O(min(m,n)) memory),
with an optional ``upper_bound`` that enables a banded early-exit — the
clustering pass compares every pair of traces, so most comparisons are
against the threshold and can stop as soon as the band exceeds it.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["levenshtein"]


def levenshtein(
    a: Sequence,
    b: Sequence,
    upper_bound: int | None = None,
) -> int:
    """Edit distance between two sequences of hashable items.

    If ``upper_bound`` is given and the true distance exceeds it, any
    value > ``upper_bound`` may be returned (callers compare against the
    bound, so the exact overshoot is irrelevant) — this enables the
    early-exit optimization.
    """
    # The length difference alone is a lower bound on the distance
    # (every missing item costs at least one edit), so a threshold
    # comparison can bail out before even the O(min(m,n)) equality
    # scan below.
    if upper_bound is not None and abs(len(a) - len(b)) > upper_bound:
        return upper_bound + 1
    if a == b:
        return 0
    # Ensure `a` is the shorter sequence: memory is O(len(a)).
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)

    previous = list(range(len(a) + 1))
    current = [0] * (len(a) + 1)
    for j, item_b in enumerate(b, start=1):
        current[0] = j
        row_min = current[0]
        for i, item_a in enumerate(a, start=1):
            cost = 0 if item_a == item_b else 1
            current[i] = min(
                previous[i] + 1,       # deletion
                current[i - 1] + 1,    # insertion
                previous[i - 1] + cost,  # substitution
            )
            if current[i] < row_min:
                row_min = current[i]
        if upper_bound is not None and row_min > upper_bound:
            return upper_bound + 1
        previous, current = current, previous
    return previous[len(a)]
