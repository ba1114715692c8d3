"""The Mapping Heuristic (MH) -- slide 14.

MH starts from the Initial Mapping's valid solution and iteratively
performs design transformations that improve the slide-14 objective,
"examining only transformations with the highest potential to improve
the design".  Each iteration:

1. **Candidate selection.**  Current-application processes are scored
   by how much their displacement could help: processes on nodes with
   fragmented slack (first criterion) and processes executing inside
   the worst ``T_min`` window of their node (second criterion) score
   highest; larger processes break ties (moving them moves more time).
   Only the top ``pool_size`` processes are considered.
2. **Move generation.**  For every candidate: remap to each other
   allowed node; swap priorities with its schedule neighbours on the
   same node (same-processor slack move).  For the current-application
   messages sent by candidates: delay by one feasible slot occurrence
   (bus slack move), or un-delay.
3. **Exact evaluation.**  Every generated move is priced by actually
   rescheduling the current application and recomputing the metrics
   (no surrogate model), and the best strictly-improving move is
   applied.  The loop stops when no candidate move improves the
   objective, the iteration cap is reached, or the budget runs out.

Since the search-kernel refactor MH is a thin configuration of
:class:`repro.search.SearchLoop` (neighbourhood proposer + greedy
acceptor + step budget); :meth:`search_program` exposes the whole run
as a kernel program so the portfolio runner can race MH against other
strategies over one shared engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.improvement import DescentParams, descent_loop
from repro.core.initial_mapping import InitialMapper
from repro.core.strategy import DesignResult, DesignSpec, timed
from repro.core.transformations import CandidateDesign
from repro.engine import EngineConfig, EngineCounters, EvaluationEngine
from repro.search.budget import Budget
from repro.search.loop import EvalRequest, drive


@dataclass
class MappingHeuristic:
    """Iterative-improvement mapping heuristic (the paper's MH).

    Parameters
    ----------
    pool_size:
        Number of highest-potential candidate processes examined per
        iteration (a wider pool never ends worse, see
        ``tests/core/test_strategies.py``).
    max_iterations:
        Upper bound on improvement iterations (each applies at most one
        move).
    min_improvement:
        A move must lower the objective by more than this to be taken.
    use_message_moves:
        Whether bus-slack (message-delay) moves are generated.
    engine:
        The evaluation engine's settings; the cache pays off because
        the neighbourhoods of consecutive descent iterations overlap
        heavily.
    budget:
        Optional external search budget, combined (``&``) with the
        ``max_iterations`` step cap -- the tighter limit wins on every
        axis.  Step/evaluation/patience budgets cut a seeded run at an
        exact reproducible point.
    """

    pool_size: int = 8
    max_iterations: int = 64
    min_improvement: float = 1e-9
    use_message_moves: bool = True
    engine: EngineConfig = EngineConfig()
    budget: Optional[Budget] = None

    name = "MH"

    @timed
    def design(self, spec: DesignSpec) -> DesignResult:
        """Run IM, then steepest-descent improvement of the objective."""
        with EvaluationEngine(spec, self.engine) as engine:
            result = drive(self.search_program(spec, engine.compiled), engine)
            if result.valid:
                result.counters = engine.counters()
            return result

    def search_program(self, spec: DesignSpec, compiled):
        """The MH pipeline as a kernel program (portfolio-raceable).

        A generator yielding :class:`repro.search.EvalRequest` batches:
        Initial Mapping (computed inline against the shared compiled
        spec), one cold evaluation of the IM design, then the
        steepest-descent :class:`~repro.search.SearchLoop`.
        """
        from repro.core.metrics import evaluate_design

        mapper = InitialMapper(spec.architecture)
        outcome = mapper.try_map_and_schedule(
            spec.current,
            base=spec.base_schedule,
            horizon=None if spec.base_schedule else spec.horizon,
            compiled=compiled,
        )
        if outcome is None:
            return DesignResult(
                self.name, valid=False, counters=EngineCounters(1, 0, 0)
            )
        im_mapping, im_schedule = outcome

        results = yield EvalRequest(
            designs=[
                CandidateDesign(im_mapping, dict(compiled.default_priorities))
            ]
        )
        start = results[0]
        if start is None:
            # The list scheduler resolved messages slightly differently
            # than IM and failed; report IM's own valid schedule without
            # optimization (rare).
            metrics = evaluate_design(im_schedule, spec.future, spec.weights)
            return DesignResult(
                self.name,
                valid=True,
                mapping=im_mapping,
                priorities=dict(compiled.default_priorities),
                schedule=im_schedule,
                metrics=metrics,
            )

        descent = descent_loop(
            DescentParams(
                pool_size=self.pool_size,
                max_iterations=self.max_iterations,
                min_improvement=self.min_improvement,
                use_message_moves=self.use_message_moves,
            ),
            budget=self.budget,
            name="MH-descent",
        )
        search = yield from descent.program(spec, start=start)
        best = search.incumbent
        return DesignResult(
            self.name,
            valid=True,
            mapping=best.mapping,
            priorities=dict(best.priorities),
            message_delays=dict(best.design.message_delays),
            schedule=best.schedule,
            metrics=best.metrics,
            search=search.stats,
        )
