"""Per-search accounting: what one search loop (or pipeline) did.

:class:`SearchStats` sits alongside the engine's ``CacheStats`` in the
observability story: the engine counts what the *evaluation* layer did
(hits, misses, store traffic), this counts what the *search* layer did
with it -- steps taken, proposals priced, moves accepted, and how many
evaluations it took to reach the final incumbent.  Multi-phase strategies (SA's probe / walk / polish) merge
their phase stats with :meth:`SearchStats.merged`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass
class SearchStats:
    """Accounting of one search run.

    Attributes
    ----------
    steps:
        Completed proposal steps (accept/reject decisions).
    proposals:
        Candidate designs generated and priced (>= ``steps``; a
        neighbourhood step proposes many).
    accepted:
        Steps whose proposal was accepted (the walk moved).
    improvements:
        Accepted steps that improved the incumbent.
    evaluations:
        Engine evaluations attributed to this search.
    evaluations_to_incumbent:
        Evaluations consumed when the final incumbent was first found
        (the "time-to-best" in evaluation currency).
    seconds:
        Wall-clock time of the search loop itself.
    stop_reason:
        Why the loop stopped: ``local-optimum``,
        ``exhausted-neighbourhood``, ``budget:steps``,
        ``budget:evaluations``, ``budget:seconds``, ``budget:patience``
        or ``shared-budget``.
    """

    steps: int = 0
    proposals: int = 0
    accepted: int = 0
    improvements: int = 0
    evaluations: int = 0
    evaluations_to_incumbent: int = 0
    seconds: float = 0.0
    stop_reason: str = ""

    def as_dict(self) -> dict:
        """Plain-dict form (checkpoint serialization, bench records)."""
        return {
            "steps": self.steps,
            "proposals": self.proposals,
            "accepted": self.accepted,
            "improvements": self.improvements,
            "evaluations": self.evaluations,
            "evaluations_to_incumbent": self.evaluations_to_incumbent,
            "seconds": self.seconds,
            "stop_reason": self.stop_reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchStats":
        return cls(**data)

    @classmethod
    def merged(
        cls, phases: Sequence["SearchStats"], winner: Optional[int] = None
    ) -> "SearchStats":
        """Aggregate phase stats into one pipeline-level record.

        ``winner`` is the index of the phase that produced the final
        incumbent; ``evaluations_to_incumbent`` then counts every
        evaluation of the earlier phases plus the winner phase's own
        time-to-best.  ``None`` leaves it at the phase sum (no single
        winner, e.g. the incumbent came from outside the loops).
        """
        total = cls()
        phase_list: List[SearchStats] = list(phases)
        for stats in phase_list:
            total.steps += stats.steps
            total.proposals += stats.proposals
            total.accepted += stats.accepted
            total.improvements += stats.improvements
            total.evaluations += stats.evaluations
            total.seconds += stats.seconds
        if phase_list:
            total.stop_reason = phase_list[-1].stop_reason
        if winner is not None and 0 <= winner < len(phase_list):
            before = sum(s.evaluations for s in phase_list[:winner])
            total.evaluations_to_incumbent = (
                before + phase_list[winner].evaluations_to_incumbent
            )
        else:
            total.evaluations_to_incumbent = sum(
                s.evaluations_to_incumbent for s in phase_list
            )
        return total
