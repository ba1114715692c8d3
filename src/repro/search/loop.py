"""The unified search loop: propose -> price -> accept, under a budget.

Every optimization in the repository -- the Mapping Heuristic's
steepest descent, Simulated Annealing's Metropolis walk and calibration
probe, SA's polish phase, and any portfolio member -- is one
:class:`SearchLoop`: a :class:`~repro.search.proposers.Proposer`
generates moves, the evaluation engine prices them (cached, batched),
an :class:`~repro.search.acceptors.Acceptor` decides where the walk
goes, and a :class:`~repro.search.budget.Budget` says when to stop.
The loop tracks the best design seen (the *incumbent*) and returns it
with full :class:`SearchStats` accounting.

The loop body is written as a *generator* (:meth:`SearchLoop.program`)
that yields :class:`EvalRequest` batches and receives their results:
the same program can be driven standalone against one engine
(:func:`drive`, used by ``strategy.design``) or interleaved with other
programs over one shared engine by the
:class:`~repro.search.portfolio.PortfolioRunner` -- deterministic
lockstep racing without threads, so seeded results are byte-identical
for any racing order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generator,
    List,
    Optional,
    Sequence,
)

import numpy as np

from repro.engine.engine import EvaluationEngine
from repro.engine.evaluation import EvaluatedDesign
from repro.search.acceptors import Acceptor
from repro.search.budget import Budget, BudgetProgress, SharedBudgetExhausted
from repro.search.proposers import Proposer
from repro.search.stats import SearchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import DesignSpec
    from repro.core.transformations import CandidateDesign, Transformation


@dataclass(frozen=True)
class EvalRequest:
    """One batch of evaluation work a search program asks for.

    Exactly one of the two forms is populated:

    * ``designs`` -- candidate evaluations, and
    * ``parent`` + ``moves`` -- a move neighbourhood of one parent,
      served as the evaluations of ``move.apply(parent.design)``.
      Search steps ask in this form because a shared racing budget
      cuts only move neighbourhoods.

    The response is the list of outcomes in input order (``None`` per
    invalid candidate).
    """

    designs: Optional[Sequence["CandidateDesign"]] = None
    parent: Optional[EvaluatedDesign] = None
    moves: Optional[Sequence["Transformation"]] = None

    @property
    def size(self) -> int:
        """How many engine evaluations serving this request costs."""
        if self.moves is not None:
            return len(self.moves)
        return len(self.designs or ())


def execute_request(
    engine: EvaluationEngine, request: EvalRequest
) -> List[Optional[EvaluatedDesign]]:
    """Serve one :class:`EvalRequest` through an engine.

    A moves request is served as its children, each move applied to
    the parent's design.  Single-item requests use the singular engine
    API and batches the plural one, so a program driven here produces
    exactly the engine accounting of the hand-rolled loops it replaced.
    """
    moves = request.moves
    if moves is None:
        designs = list(request.designs or ())
    else:
        parent = request.parent
        assert parent is not None  # the moves form always carries one
        if len(moves) == 1:
            # SA's walk asks one move per step: skip the list.
            return [engine.evaluate(moves[0].apply(parent.design))]
        designs = [move.apply(parent.design) for move in moves]
    if len(designs) == 1:
        return [engine.evaluate(designs[0])]
    return engine.evaluate_many(designs)


SearchProgram = Generator[EvalRequest, List[Optional[EvaluatedDesign]], "SearchOutcome"]


def drive(
    program: Generator[EvalRequest, List[Optional[EvaluatedDesign]], Any],
    engine: EvaluationEngine,
) -> Any:
    """Run a search program to completion against one engine.

    Works for any generator that yields :class:`EvalRequest` and
    returns its result via ``StopIteration`` -- a bare
    :meth:`SearchLoop.program` or a whole strategy pipeline.
    """
    try:
        request = next(program)
        while True:
            request = program.send(execute_request(engine, request))
    except StopIteration as stop:
        return stop.value


@dataclass
class SearchEvent:
    """What one step did (observer callback payload)."""

    step: int
    previous: EvaluatedDesign
    moves: Sequence["Transformation"]
    results: Sequence[Optional[EvaluatedDesign]]
    accepted: Optional[EvaluatedDesign]


@dataclass
class SearchOutcome:
    """What a finished (or budget-cut) search loop produced."""

    incumbent: EvaluatedDesign
    current: EvaluatedDesign
    stats: SearchStats


@dataclass
class SearchLoop:
    """One propose/price/accept search, parameterized by its policies.

    Attributes
    ----------
    proposer:
        Move generation per step.
    acceptor:
        Acceptance policy (owns per-run mutable state such as the
        Metropolis temperature; a fresh loop instance per run).
    budget:
        Stopping conditions; ``None`` runs until the proposer or
        acceptor terminates the search naturally.
    name:
        Label used in stats and portfolio reports.
    """

    proposer: Proposer
    acceptor: Acceptor
    budget: Optional[Budget] = None
    name: str = "search"

    # ------------------------------------------------------------------
    def run(
        self,
        spec: "DesignSpec",
        engine: EvaluationEngine,
        start: EvaluatedDesign,
        rng: Optional[np.random.Generator] = None,
        observer: Optional[Callable[[SearchEvent], None]] = None,
    ) -> SearchOutcome:
        """Drive :meth:`program` against ``engine`` (standalone mode)."""
        return drive(
            self.program(spec, start=start, rng=rng, observer=observer),
            engine,
        )

    # ------------------------------------------------------------------
    def program(
        self,
        spec: "DesignSpec",
        start: EvaluatedDesign,
        rng: Optional[np.random.Generator] = None,
        observer: Optional[Callable[[SearchEvent], None]] = None,
    ) -> SearchProgram:
        """The loop body as a generator of :class:`EvalRequest` batches.

        The walk starts at ``start``.  A :class:`SharedBudgetExhausted`
        thrown into an evaluation yield (the portfolio runner's
        shared-budget cut) ends the loop cleanly with the incumbent
        found so far.
        """
        budget = self.budget if self.budget is not None else Budget()
        stats = SearchStats()
        stall = 0
        current = start
        incumbent = start

        started = time.perf_counter()

        def elapsed() -> float:
            return time.perf_counter() - started

        stop_reason: str
        while True:
            progress = BudgetProgress(
                steps=stats.steps,
                evaluations=stats.evaluations,
                seconds=elapsed(),
                stall=stall,
            )
            stop = budget.stop_reason(progress)
            if stop is not None:
                stop_reason = stop
                break

            moves = self.proposer.propose(spec, current, rng)
            if not moves:
                stop_reason = "exhausted-neighbourhood"
                break
            try:
                results = yield EvalRequest(parent=current, moves=moves)
            except SharedBudgetExhausted:
                stop_reason = "shared-budget"
                break
            stats.proposals += len(moves)
            stats.evaluations += len(moves)

            accepted = self.acceptor.decide(current, moves, results, rng)
            stats.steps += 1
            if observer is not None:
                observer(
                    SearchEvent(stats.steps, current, moves, results, accepted)
                )
            if accepted is None:
                if self.acceptor.terminal_on_reject:
                    stop_reason = "local-optimum"
                    break
                stall += 1
                continue
            stats.accepted += 1
            current = accepted
            if accepted.objective < incumbent.objective:
                incumbent = accepted
                stats.improvements += 1
                stats.evaluations_to_incumbent = stats.evaluations
                stall = 0
            else:
                stall += 1

        stats.seconds = elapsed()
        stats.stop_reason = stop_reason
        return SearchOutcome(incumbent, current, stats)
