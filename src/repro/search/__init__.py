"""The unified search kernel.

One search loop serves every optimization in the repository: a
:class:`~repro.search.proposers.Proposer` generates moves, the shared
evaluation engine prices them, an
:class:`~repro.search.acceptors.Acceptor` decides where the walk goes,
and a :class:`~repro.search.budget.Budget` says when to stop.  A search
is replayed, never resumed: a seeded rerun repeats it exactly, and a
warm result store serves the designs it already priced.
:class:`~repro.search.portfolio.PortfolioRunner` races several
configured strategies for one shared budget in deterministic lockstep,
in-process or across forked shard processes; a dead shard's members
rerun from their seed against the parent's verdict log.
"""

from repro.search.acceptors import (
    AcceptAny,
    Acceptor,
    GreedyAcceptor,
    MetropolisAcceptor,
)
from repro.search.budget import Budget, BudgetProgress, SharedBudgetExhausted
from repro.search.loop import (
    EvalRequest,
    SearchEvent,
    SearchLoop,
    SearchOutcome,
    drive,
    execute_request,
)
from repro.search.portfolio import (
    PortfolioMemberOutcome,
    PortfolioResult,
    PortfolioRunner,
    ShardEvent,
    first_valid,
)
from repro.search.proposers import (
    Neighbourhood,
    NeighbourhoodProposer,
    Proposer,
    RandomMoveProposer,
    generate_moves,
    random_move,
    select_candidates,
)
from repro.search.stats import SearchStats

__all__ = [
    "AcceptAny",
    "Acceptor",
    "Budget",
    "BudgetProgress",
    "EvalRequest",
    "GreedyAcceptor",
    "MetropolisAcceptor",
    "Neighbourhood",
    "NeighbourhoodProposer",
    "PortfolioMemberOutcome",
    "PortfolioResult",
    "PortfolioRunner",
    "Proposer",
    "RandomMoveProposer",
    "SearchEvent",
    "SearchLoop",
    "SearchOutcome",
    "SearchStats",
    "ShardEvent",
    "SharedBudgetExhausted",
    "drive",
    "execute_request",
    "first_valid",
    "generate_moves",
    "random_move",
    "select_candidates",
]
