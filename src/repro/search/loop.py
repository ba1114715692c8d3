"""The unified search loop: propose -> price -> accept, under a budget.

Every optimization in the repository -- the Mapping Heuristic's
steepest descent, Simulated Annealing's Metropolis walk and calibration
probe, SA's polish phase, and any portfolio member -- is one
:class:`SearchLoop`: a :class:`~repro.search.proposers.Proposer`
generates moves, the evaluation engine prices them (cached, batched),
an :class:`~repro.search.acceptors.Acceptor` decides where the walk
goes, and a :class:`~repro.search.budget.Budget` says when to stop.  The loop tracks the best design seen (the
*incumbent*) and returns it with full :class:`SearchStats` accounting
and a resumable :class:`SearchCheckpoint`.

The loop body is written as a *generator* (:meth:`SearchLoop.program`)
that yields :class:`EvalRequest` batches and receives their results:
the same program can be driven standalone against one evaluator
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

from repro.engine.evaluation import EvaluatedDesign
from repro.search.acceptors import Acceptor
from repro.search.budget import (
    Budget,
    BudgetProgress,
    SharedBudgetExhausted,
    StealRequested,
)
from repro.search.checkpoint import (
    MemberCheckpoint,
    MemberPaused,
    SearchCheckpoint,
    design_from_dict,
    design_to_dict,
)
from repro.search.proposers import Proposer
from repro.search.stats import SearchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import DesignEvaluator, DesignSpec
    from repro.core.transformations import CandidateDesign, Transformation


@dataclass(frozen=True)
class EvalRequest:
    """One batch of evaluation work a search program asks for.

    Exactly one of the two forms is populated:

    * ``designs`` -- candidate evaluations, and
    * ``parent`` + ``moves`` -- a move neighbourhood of one parent,
      served as the evaluations of ``move.apply(parent.design)``.
      Search steps ask in this form because it is where the
      distributed race cuts a member for a steal.

    The response is the list of outcomes in input order (``None`` per
    invalid candidate).

    ``bookkeeping`` marks requests that rebuild infrastructure state
    rather than advance the search -- the checkpoint-resume
    re-evaluations of the stored current/incumbent designs.  Racing
    drivers serve them without charging any shared budget (they are
    deterministic replays of work already paid for), which is what
    keeps a cut+resumed member's budget trajectory byte-identical to
    the uninterrupted run's.
    """

    designs: Optional[Sequence["CandidateDesign"]] = None
    parent: Optional[EvaluatedDesign] = None
    moves: Optional[Sequence["Transformation"]] = None
    bookkeeping: bool = False

    @property
    def size(self) -> int:
        """How many engine evaluations serving this request costs."""
        if self.moves is not None:
            return len(self.moves)
        return len(self.designs or ())


def execute_request(
    evaluator: "DesignEvaluator", request: EvalRequest
) -> List[Optional[EvaluatedDesign]]:
    """Serve one :class:`EvalRequest` through an evaluator.

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
            return [evaluator.evaluate(moves[0].apply(parent.design))]
        designs = [move.apply(parent.design) for move in moves]
    if len(designs) == 1:
        return [evaluator.evaluate(designs[0])]
    return evaluator.evaluate_many(designs)


SearchProgram = Generator[EvalRequest, List[Optional[EvaluatedDesign]], "SearchOutcome"]


def drive(
    program: Generator[EvalRequest, List[Optional[EvaluatedDesign]], Any],
    evaluator: "DesignEvaluator",
) -> Any:
    """Run a search program to completion against one evaluator.

    Works for any generator that yields :class:`EvalRequest` and
    returns its result via ``StopIteration`` -- a bare
    :meth:`SearchLoop.program` or a whole strategy pipeline.
    """
    try:
        request = next(program)
        while True:
            request = program.send(execute_request(evaluator, request))
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
    checkpoint: SearchCheckpoint


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
        evaluator: "DesignEvaluator",
        start: Optional[EvaluatedDesign] = None,
        rng: Optional[np.random.Generator] = None,
        checkpoint: Optional[SearchCheckpoint] = None,
        observer: Optional[Callable[[SearchEvent], None]] = None,
    ) -> SearchOutcome:
        """Drive :meth:`program` against ``evaluator`` (standalone mode)."""
        return drive(
            self.program(
                spec,
                start=start,
                rng=rng,
                checkpoint=checkpoint,
                observer=observer,
            ),
            evaluator,
        )

    def resume(
        self,
        spec: "DesignSpec",
        evaluator: "DesignEvaluator",
        checkpoint: SearchCheckpoint,
        rng: Optional[np.random.Generator] = None,
    ) -> SearchOutcome:
        """Continue a checkpointed search exactly where it stopped."""
        return self.run(spec, evaluator, checkpoint=checkpoint, rng=rng)

    # ------------------------------------------------------------------
    def program(
        self,
        spec: "DesignSpec",
        start: Optional[EvaluatedDesign] = None,
        rng: Optional[np.random.Generator] = None,
        checkpoint: Optional[SearchCheckpoint] = None,
        observer: Optional[Callable[[SearchEvent], None]] = None,
    ) -> SearchProgram:
        """The loop body as a generator of :class:`EvalRequest` batches.

        Exactly one of ``start`` (fresh search) and ``checkpoint``
        (resumed search) must be provided.  A
        :class:`SharedBudgetExhausted` thrown into an evaluation yield
        (the portfolio runner's shared-budget cut) ends the loop
        cleanly with the incumbent found so far.
        """
        budget = self.budget if self.budget is not None else Budget()
        stats = SearchStats()
        base_seconds = 0.0
        stall = 0

        if checkpoint is not None:
            if start is not None:
                raise ValueError("pass either start or checkpoint, not both")
            rng = _restore_rng(rng, checkpoint.rng_state)
            self.acceptor.load_state_dict(dict(checkpoint.acceptor_state))
            stats = SearchStats.from_dict(checkpoint.stats.as_dict())
            stats.stop_reason = ""
            base_seconds = checkpoint.seconds
            stall = checkpoint.stall
            current_design = design_from_dict(checkpoint.current, spec)
            incumbent_design = design_from_dict(checkpoint.incumbent, spec)
            results = yield EvalRequest(
                designs=[current_design], bookkeeping=True
            )
            current = results[0]
            if current is None:
                raise ValueError(
                    "checkpointed current design no longer evaluates as "
                    "valid; the checkpoint does not match this spec"
                )
            if checkpoint.incumbent == checkpoint.current:
                incumbent = current
            else:
                results = yield EvalRequest(
                    designs=[incumbent_design], bookkeeping=True
                )
                incumbent = results[0]
                if incumbent is None:
                    raise ValueError(
                        "checkpointed incumbent design no longer evaluates "
                        "as valid; the checkpoint does not match this spec"
                    )
        else:
            if start is None:
                raise ValueError("pass a start design or a checkpoint")
            current = start
            incumbent = start

        started = time.perf_counter()

        def elapsed() -> float:
            return base_seconds + (time.perf_counter() - started)

        stop_reason: str
        pre_propose_rng: Optional[dict] = None
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

            # A steal lands at the evaluation yield below, *after* the
            # proposer consumed RNG draws for a batch that is then
            # discarded.  The steal checkpoint must carry the
            # pre-propose state so the resumed loop re-proposes the
            # identical batch (byte-identity with the unstolen run).
            pre_propose_rng = _rng_state(rng)
            moves = self.proposer.propose(spec, current, rng)
            if not moves:
                stop_reason = "exhausted-neighbourhood"
                break
            try:
                results = yield EvalRequest(parent=current, moves=moves)
            except SharedBudgetExhausted:
                stop_reason = "shared-budget"
                break
            except StealRequested:
                stop_reason = "steal"
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
        final_checkpoint = SearchCheckpoint(
            current=design_to_dict(current.design),
            incumbent=design_to_dict(incumbent.design),
            incumbent_objective=incumbent.objective,
            steps=stats.steps,
            evaluations=stats.evaluations,
            stall=stall,
            seconds=stats.seconds,
            rng_state=(
                pre_propose_rng if stop_reason == "steal" else _rng_state(rng)
            ),
            acceptor_state=self.acceptor.state_dict(),
            stats=SearchStats.from_dict(stats.as_dict()),
        )
        if stop_reason == "steal":
            # Do not return: the member is migrating, not finishing.
            # The enclosing pipeline annotates phase/carry on the way
            # out; serialization happens once at ship time.
            raise MemberPaused(MemberCheckpoint(loop=final_checkpoint))
        return SearchOutcome(incumbent, current, stats, final_checkpoint)


def _rng_state(rng: Optional[np.random.Generator]) -> Optional[dict]:
    if rng is None:
        return None
    return rng.bit_generator.state


def _restore_rng(
    rng: Optional[np.random.Generator], state: Optional[dict]
) -> Optional[np.random.Generator]:
    """An RNG continuing exactly the checkpointed stream."""
    if state is None:
        return rng
    if rng is None:
        # The seed is irrelevant -- the bit-generator state is
        # replaced on the next line -- but an unseeded default_rng()
        # would draw OS entropy for nothing (and trip DET002).
        rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng
