"""Acceptors: how a search step decides which priced move (if any) to take.

An acceptor receives the step's evaluation results (in move order) and
returns the new current design, or ``None`` to reject the step.  The
concrete policies mirror the searches the kernel replaced:

* :class:`GreedyAcceptor` -- steepest descent: take the best strictly
  improving move; a reject is *terminal* (local optimum reached).
* :class:`MetropolisAcceptor` -- simulated annealing: accept downhill
  always, uphill with the Boltzmann probability at the current
  temperature; cools geometrically once per step.
* :class:`ThresholdAcceptor` -- threshold accepting: take the first
  move within ``threshold`` of the current objective (a deterministic
  SA relative).
* :class:`AcceptAny` -- take the first valid result (SA's
  temperature-calibration probe walks like this).

Acceptors may hold mutable per-run state (the Metropolis temperature);
``state_dict`` / ``load_state_dict`` expose it for checkpoints.  The
stochastic acceptor draws from the loop's RNG in exactly the legacy
order (a draw only for uphill proposals), preserving seeded
byte-identical trajectories.
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

    def state_dict(self) -> dict:
        """Serializable mutable state (``{}`` for stateless policies)."""
        ...  # pragma: no cover - protocol

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output (checkpoint resume)."""
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

    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass


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

    def state_dict(self) -> dict:
        return {"temperature": self.temperature}

    def load_state_dict(self, state: dict) -> None:
        self.temperature = float(state["temperature"])


class ThresholdAcceptor:
    """Threshold accepting: the first move within ``threshold`` uphill.

    A deterministic SA relative (Dueck & Scheuer): a move is taken when
    it does not worsen the objective by more than ``threshold``, which
    decays geometrically per step down to zero (pure descent).
    """

    terminal_on_reject = False

    def __init__(self, threshold: float, decay: float = 1.0):
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.threshold = threshold
        self.decay = decay

    def decide(
        self,
        current: EvaluatedDesign,
        moves: Sequence[Transformation],
        results: Sequence[Optional[EvaluatedDesign]],
        rng: Optional[np.random.Generator],
    ) -> Optional[EvaluatedDesign]:
        accepted: Optional[EvaluatedDesign] = None
        for evaluated in results:
            if evaluated is None:
                continue
            if evaluated.objective < current.objective + self.threshold:
                accepted = evaluated
                break
        self.threshold *= self.decay
        return accepted

    def state_dict(self) -> dict:
        return {"threshold": self.threshold}

    def load_state_dict(self, state: dict) -> None:
        self.threshold = float(state["threshold"])


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

    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        pass
