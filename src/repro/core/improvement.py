"""Steepest-descent improvement over the high-potential neighbourhood.

This is the inner loop of the Mapping Heuristic, shared with the
Simulated Annealing reference's *polish* phase (annealing explores
globally; the final descent walks to the bottom of the basin it found).
The descent is a configuration of :class:`repro.search.SearchLoop`:
the neighbourhood enumeration is
:class:`repro.search.proposers.NeighbourhoodProposer` and the
steepest-improvement policy is :class:`repro.search.GreedyAcceptor`,
so MH and SA optimize over exactly the same transformation
neighbourhood with exactly the same acceptance rule.  Run one
standalone with ``descent_loop(params).run(spec, engine, start=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.search.acceptors import GreedyAcceptor
from repro.search.budget import Budget
from repro.search.loop import SearchLoop
from repro.search.proposers import NeighbourhoodProposer


@dataclass(frozen=True)
class DescentParams:
    """Knobs of the steepest-descent loop (shared by MH and SA-polish).

    Attributes
    ----------
    pool_size:
        Number of highest-potential candidate processes per iteration.
    max_iterations:
        Maximum number of applied moves.
    min_improvement:
        Required strict objective decrease per applied move.
    use_message_moves:
        Whether bus-slack (message-delay) moves are generated.
    """

    pool_size: int = 8
    max_iterations: int = 64
    min_improvement: float = 1e-9
    use_message_moves: bool = True


def descent_loop(
    params: Optional[DescentParams] = None,
    budget: Optional[Budget] = None,
    name: str = "descent",
) -> SearchLoop:
    """The steepest-descent search as a kernel :class:`SearchLoop`.

    ``params.max_iterations`` becomes a step budget, combined (``&``)
    with any externally supplied ``budget`` -- the tighter limit wins
    on every axis.
    """
    if params is None:
        params = DescentParams()
    return SearchLoop(
        proposer=NeighbourhoodProposer(
            pool_size=params.pool_size,
            use_message_moves=params.use_message_moves,
        ),
        acceptor=GreedyAcceptor(params.min_improvement),
        budget=Budget.combine(Budget(max_steps=params.max_iterations), budget),
        name=name,
    )
