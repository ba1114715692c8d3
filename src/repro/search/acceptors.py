"""Acceptors: how a search step decides which priced move (if any) to take.

An acceptor receives the step's evaluation results (in move order) and
returns the new current design, or ``None`` to reject the step.  The
concrete policies mirror the searches the kernel replaced:

* :class:`GreedyAcceptor` -- steepest descent: take the best strictly
  improving move; a reject is *terminal* (local optimum reached).
* :class:`MetropolisAcceptor` -- simulated annealing: accept downhill
  always, uphill with the Boltzmann probability at the current
  temperature; cools geometrically once per step.
* :class:`AcceptAny` -- take the first valid result (SA's
  temperature-calibration probe walks like this).

Acceptors may hold mutable per-run state (the Metropolis temperature),
so each run gets a fresh acceptor.  The stochastic acceptor draws from
the loop's RNG in exactly the legacy order (a draw only for uphill
proposals), preserving seeded byte-identical trajectories.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.core.transformations import Transformation
from repro.engine.evaluation import EvaluatedDesign


class Acceptor(Protocol):
    """Decides whether (and where) the walk moves this step."""

    #: Whether a rejected step terminates the search (greedy descent
    #: stops at a local optimum; stochastic walks keep going).
    terminal_on_reject: bool

    def decide(
        self,
        current: EvaluatedDesign,
        moves: Sequence[Transformation],
        results: Sequence[Optional[EvaluatedDesign]],
        rng: Optional[np.random.Generator],
    ) -> Optional[EvaluatedDesign]:
        """The accepted result, or ``None`` to stay at ``current``."""
        ...  # pragma: no cover - protocol


class GreedyAcceptor:
    """Steepest descent: the best strictly improving move, or stop.

    Walks the results in move order and keeps the steepest improvement
    over the current objective (by more than ``min_improvement``), so
    cached and uncached runs pick the identical move.
    """

    terminal_on_reject = True

    def __init__(self, min_improvement: float = 1e-9):
        self.min_improvement = min_improvement

    def decide(
        self,
        current: EvaluatedDesign,
        moves: Sequence[Transformation],
        results: Sequence[Optional[EvaluatedDesign]],
        rng: Optional[np.random.Generator],
    ) -> Optional[EvaluatedDesign]:
        winner: Optional[EvaluatedDesign] = None
        for evaluated in results:
            if evaluated is None:
                continue
            target = winner.objective if winner is not None else current.objective
            if evaluated.objective < target - self.min_improvement:
                winner = evaluated
        return winner


class MetropolisAcceptor:
    """Metropolis acceptance with geometric cooling.

    ``decide`` examines results in order and accepts the first that
    passes the Metropolis test (downhill always; uphill with
    probability ``exp(-delta / T)``), then cools once -- per *step*,
    exactly like the legacy annealing loop, including steps whose
    proposal was invalid.
    """

    terminal_on_reject = False

    def __init__(
        self,
        temperature: float,
        cooling: float = 0.997,
        min_temperature: float = 1e-3,
    ):
        self.temperature = temperature
        self.cooling = cooling
        self.min_temperature = min_temperature

    @staticmethod
    def metropolis(
        delta: float, temperature: float, rng: np.random.Generator
    ) -> bool:
        """The classical acceptance test (RNG drawn only when uphill)."""
        if delta <= 0:
            return True
        if temperature <= 0:
            return False
        return rng.random() < math.exp(-delta / temperature)

    def decide(
        self,
        current: EvaluatedDesign,
        moves: Sequence[Transformation],
        results: Sequence[Optional[EvaluatedDesign]],
        rng: Optional[np.random.Generator],
    ) -> Optional[EvaluatedDesign]:
        if rng is None:
            raise ValueError("MetropolisAcceptor requires an rng")
        accepted: Optional[EvaluatedDesign] = None
        for evaluated in results:
            if evaluated is None:
                continue
            if self.metropolis(
                evaluated.objective - current.objective, self.temperature, rng
            ):
                accepted = evaluated
                break
        self.temperature = max(
            self.min_temperature, self.temperature * self.cooling
        )
        return accepted


class AcceptAny:
    """Accept the first valid result unconditionally (probe walks)."""

    terminal_on_reject = False

    def decide(
        self,
        current: EvaluatedDesign,
        moves: Sequence[Transformation],
        results: Sequence[Optional[EvaluatedDesign]],
        rng: Optional[np.random.Generator],
    ) -> Optional[EvaluatedDesign]:
        for evaluated in results:
            if evaluated is not None:
                return evaluated
        return None
