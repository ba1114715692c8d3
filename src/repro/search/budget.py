"""Search budgets: composable stopping conditions for any search loop.

A :class:`Budget` is a pure description of *how much* searching is
allowed -- proposal steps, engine evaluations, wall-clock seconds,
patience (steps since the incumbent last improved).  It holds no
mutable state: the loop tracks its own progress counters and asks the
budget for a stop verdict before every step, so one budget object can
bound any number of runs.

Budgets compose with ``&``: the combined budget stops as soon as any
component would (the per-limit minimum).  ``Budget()`` is the identity
-- unlimited on every axis -- so strategies can unconditionally combine
their own caps with an optional user budget.

Determinism: step, evaluation and patience limits cut a seeded search
at an exact, reproducible point.  ``max_seconds`` is inherently
machine-dependent; seeded byte-identical equivalence across runs is
only guaranteed for budgets that do not use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class SharedBudgetExhausted(Exception):
    """Thrown *into* a search program when a budget shared between
    racing portfolio members runs out.

    The :class:`~repro.search.loop.SearchLoop` body catches it at its
    evaluation yield and finishes normally with the incumbent found so
    far (stop reason ``shared-budget``), so a multi-phase strategy
    program unwinds gracefully: each remaining phase is cut at its
    first evaluation request and the program still returns a complete
    result.
    """


def _min_limit(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """Tighter of two limits where ``None`` means unlimited."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class BudgetProgress:
    """The progress counters a budget is checked against.

    Attributes
    ----------
    steps:
        Completed proposal steps (one accept/reject decision each).
    evaluations:
        Engine evaluations the search consumed (a neighbourhood step
        consumes one per generated move).
    seconds:
        Wall-clock seconds the loop has spent searching.
    stall:
        Steps since the incumbent last improved.
    """

    steps: int = 0
    evaluations: int = 0
    seconds: float = 0.0
    stall: int = 0


@dataclass(frozen=True)
class Budget:
    """Composable stopping conditions; ``None`` means unlimited.

    Attributes
    ----------
    max_steps:
        Proposal-step cap (a steepest-descent iteration or one
        Metropolis proposal is one step).
    max_evaluations:
        Engine-evaluation cap, checked *before* each step: a step whose
        neighbourhood would start at or beyond the cap does not run.
    max_seconds:
        Wall-clock cap (see the determinism note in the module doc).
    patience:
        Stop after this many consecutive steps without an incumbent
        improvement.
    """

    max_steps: Optional[int] = None
    max_evaluations: Optional[int] = None
    max_seconds: Optional[float] = None
    patience: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_steps", "max_evaluations", "max_seconds", "patience"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative or None, got {value}")

    def __and__(self, other: "Budget") -> "Budget":
        """The combined budget: stops when either component would."""
        return Budget(
            max_steps=_min_limit(self.max_steps, other.max_steps),
            max_evaluations=_min_limit(self.max_evaluations, other.max_evaluations),
            max_seconds=_min_limit(self.max_seconds, other.max_seconds),
            patience=_min_limit(self.patience, other.patience),
        )

    @staticmethod
    def combine(*budgets: Optional["Budget"]) -> "Budget":
        """Fold any number of (possibly ``None``) budgets with ``&``."""
        combined = Budget()
        for budget in budgets:
            if budget is not None:
                combined = combined & budget
        return combined

    @property
    def unlimited(self) -> bool:
        """Whether this budget can never stop a search."""
        return (
            self.max_steps is None
            and self.max_evaluations is None
            and self.max_seconds is None
            and self.patience is None
        )

    def stop_reason(self, progress: BudgetProgress) -> Optional[str]:
        """Why the search must stop now, or ``None`` to keep going."""
        if self.max_steps is not None and progress.steps >= self.max_steps:
            return "budget:steps"
        if (
            self.max_evaluations is not None
            and progress.evaluations >= self.max_evaluations
        ):
            return "budget:evaluations"
        if self.max_seconds is not None and progress.seconds >= self.max_seconds:
            return "budget:seconds"
        if self.patience is not None and progress.stall >= self.patience:
            return "budget:patience"
        return None
