"""Per-axis sensitivity: the learned stand-in for linear density (§3).

"Given a value n, the sensitivity of X_i is computed by summing the
fitness value of the previous n test cases in which attribute α_i was
mutated."  Axes whose mutations recently produced high-fitness tests get
proportionally more future mutations — this is how the search aligns
itself with fault-space structure it cannot see a priori (the
Battleship player inferring ship orientation).

A smoothing floor keeps every axis at a non-zero probability, so the
search never permanently abandons a direction (mirroring how Qpriority
sampling never fully excludes low-fitness parents).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from repro.core.queues import WeightedDraw
from repro.errors import SearchError

__all__ = ["SensitivityTracker"]


class SensitivityTracker:
    """Sliding-window fitness accounting per fault-space axis."""

    def __init__(
        self,
        axis_names: Sequence[str],
        window: int = 20,
        floor: float = 0.05,
    ) -> None:
        if not axis_names:
            raise SearchError("sensitivity tracker needs at least one axis")
        if window < 1:
            raise SearchError(f"window must be >= 1, got {window}")
        if not 0.0 < floor < 1.0:
            raise SearchError(f"floor must be in (0, 1), got {floor}")
        self.axis_names = tuple(axis_names)
        self.window = window
        self.floor = floor
        self._history: dict[str, deque[float]] = {
            name: deque(maxlen=window) for name in self.axis_names
        }
        #: :meth:`probabilities` as of the last ``record`` (None: stale).
        self._probabilities: dict[str, float] | None = None
        #: :meth:`draw_for` by axes tuple, as of the last ``record``.
        self._draws: dict[tuple[str, ...], WeightedDraw] = {}

    def record(self, axis_name: str, fitness: float) -> None:
        """Account one executed test whose ``axis_name`` was mutated."""
        history = self._history.get(axis_name)
        if history is None:
            raise SearchError(f"unknown axis {axis_name!r}")
        history.append(fitness)
        self._probabilities = None
        self._draws.clear()

    def sensitivity(self, axis_name: str) -> float:
        """Sum of the last ``window`` fitness values for this axis."""
        history = self._history.get(axis_name)
        if history is None:
            raise SearchError(f"unknown axis {axis_name!r}")
        return sum(history)

    def sensitivities(self) -> dict[str, float]:
        return {name: sum(h) for name, h in self._history.items()}

    def probabilities(self) -> dict[str, float]:
        """Normalized axis-selection distribution (Algorithm 1, line 5).

        Each axis receives ``floor / N`` probability mass
        unconditionally; the remainder is split proportionally to
        sensitivity.  Before any observations, the distribution is
        uniform.  Computed once per ``record`` — a generation draws many
        axes off one unchanged history — and returned as a fresh dict.
        """
        return dict(self._current())

    def draw_for(self, axes: tuple[str, ...]) -> WeightedDraw:
        """Line 6's draw among ``axes``, weighted by :meth:`probabilities`.

        Kept per ``axes`` until the next ``record``, like the
        probabilities it is built from.
        """
        draw = self._draws.get(axes)
        if draw is None:
            probabilities = self._current()
            draw = self._draws[axes] = WeightedDraw(
                [probabilities[a] for a in axes]
            )
        return draw

    def _current(self) -> dict[str, float]:
        if self._probabilities is None:
            raw = self.sensitivities()
            total = sum(raw.values())
            n = len(self.axis_names)
            if total <= 0.0:
                self._probabilities = dict.fromkeys(self.axis_names, 1.0 / n)
            else:
                base = self.floor / n
                scale = 1.0 - self.floor
                self._probabilities = {
                    name: base + scale * raw[name] / total
                    for name in self.axis_names
                }
        return self._probabilities

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.2f}" for k, v in self.sensitivities().items())
        return f"SensitivityTracker({parts})"
