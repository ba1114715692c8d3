"""Simulated Annealing (SA) -- the paper's near-optimal reference.

Slide 14 uses SA to obtain "near optimal value for C": a slow but
thorough stochastic search whose result the faster strategies are
measured against (slide 15 reports AH's and MH's average percentage
deviation from SA).

The implementation is classical Metropolis annealing over the same
search space as MH -- :class:`repro.core.transformations.CandidateDesign`
points mutated by remap / priority-swap / message-delay moves -- with a
geometric cooling schedule and an automatically calibrated initial
temperature (mean uphill delta of a random probe walk).  Invalid
candidates (deadline misses) are always rejected, so requirement (a)
holds at every accepted state.

Since the search-kernel refactor the whole pipeline is a sequence of
:class:`repro.search.SearchLoop` phases sharing one RNG stream --
calibration probe (random proposer + accept-any), Metropolis walk
(random proposer + Metropolis acceptor), and the polish descents
(neighbourhood proposer + greedy acceptor, shared with MH).  The phase
sequence draws random numbers in exactly the legacy order, so seeded
SA results are byte-identical to the pre-refactor implementation.
:meth:`search_program` exposes the pipeline as one kernel program for
the portfolio runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.improvement import descent_loop
from repro.core.initial_mapping import InitialMapper
from repro.core.strategy import DesignResult, DesignSpec, timed
from repro.core.transformations import CandidateDesign
from repro.engine import EngineConfig, EngineCounters, EvaluationEngine
from repro.search.acceptors import AcceptAny, MetropolisAcceptor
from repro.search.budget import Budget
from repro.search.loop import EvalRequest, SearchLoop, drive
from repro.search.proposers import RandomMoveProposer
from repro.search.stats import SearchStats
from repro.utils.rng import SeedLike, make_rng


@dataclass
class SimulatedAnnealing:
    """Metropolis annealing over candidate designs.

    Parameters
    ----------
    iterations:
        Total number of proposed moves (the dominant cost knob; the
        paper's SA ran for tens of minutes, this default is sized for
        laptop-scale scenarios).
    initial_temperature:
        Starting temperature; ``None`` calibrates it from a random
        probe of ``probe_moves`` deltas.
    cooling:
        Geometric cooling factor per step (applied so the temperature
        decays smoothly across ``iterations``).
    min_temperature:
        Floor below which the search becomes pure descent.
    probe_moves:
        Probe-walk length for temperature auto-calibration.
    seed:
        RNG seed; every run with the same seed and spec is identical.
    polish:
        When True (default) the best annealed design is finished with
        the exact steepest-descent pass of
        :mod:`repro.core.improvement`, walking to the bottom of the
        basin SA found.  This keeps the reference "near optimal" even
        with moderate iteration budgets.
    engine:
        The evaluation engine's settings; annealing revisits rejected
        design points constantly, so cache hit rates are high.
    budget:
        Optional external search budget, combined (``&``) into *each*
        phase's own cap (probe, walk, each polish descent) -- e.g.
        ``Budget(max_evaluations=n)`` bounds every phase at ``n``
        evaluations.  Step/evaluation/patience budgets cut a seeded
        run at an exact reproducible point.
    """

    iterations: int = 1500
    initial_temperature: Optional[float] = None
    cooling: float = 0.997
    min_temperature: float = 1e-3
    probe_moves: int = 24
    seed: SeedLike = 0
    polish: bool = True
    engine: EngineConfig = EngineConfig()
    budget: Optional[Budget] = None

    name = "SA"

    # ------------------------------------------------------------------
    @timed
    def design(self, spec: DesignSpec) -> DesignResult:
        """Anneal from the Initial Mapping and return the best design seen."""
        with EvaluationEngine(spec, self.engine) as engine:
            result = drive(self.search_program(spec, engine.compiled), engine)
            if result.valid:
                result.counters = engine.counters()
            return result

    # ------------------------------------------------------------------
    def search_program(self, spec: DesignSpec, compiled):
        """The SA pipeline as one kernel program (portfolio-raceable).

        Phases, in order, sharing one seeded RNG stream: Initial
        Mapping + cold start evaluation, temperature-calibration probe
        (unless ``initial_temperature`` is set), Metropolis walk, and
        -- with ``polish`` -- steepest descents from the walk's best
        and from the start, reporting the better basin.
        """
        from repro.core.metrics import evaluate_design

        rng = make_rng(self.seed)
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
        current = results[0]
        if current is None:
            metrics = evaluate_design(im_schedule, spec.future, spec.weights)
            return DesignResult(
                self.name,
                valid=True,
                mapping=im_mapping,
                priorities=dict(compiled.default_priorities),
                schedule=im_schedule,
                metrics=metrics,
            )
        start = current
        phases: List[SearchStats] = []

        temperature = self.initial_temperature
        if temperature is None:
            # Calibration: walk `probe_moves` random accepted steps and
            # set T0 to twice the mean |objective delta| (classical rule
            # of thumb -- at T0 most uphill moves should be accepted),
            # with a floor for flat landscapes.  The probe walks a
            # throwaway copy; the annealing starts from `start`.
            deltas: List[float] = []

            def record_delta(event) -> None:
                if event.accepted is not None:
                    deltas.append(
                        abs(event.accepted.objective - event.previous.objective)
                    )

            probe = SearchLoop(
                proposer=RandomMoveProposer(),
                acceptor=AcceptAny(),
                budget=Budget.combine(
                    Budget(max_steps=self.probe_moves), self.budget
                ),
                name="SA-probe",
            )
            probed = yield from probe.program(
                spec, start=current, rng=rng, observer=record_delta
            )
            phases.append(probed.stats)
            if not deltas:
                temperature = 10.0
            else:
                temperature = max(1.0, 2.0 * float(np.mean(deltas)))

        walk = SearchLoop(
            proposer=RandomMoveProposer(),
            acceptor=MetropolisAcceptor(
                temperature, self.cooling, self.min_temperature
            ),
            budget=Budget.combine(
                Budget(max_steps=self.iterations), self.budget
            ),
            name="SA-walk",
        )
        annealed = yield from walk.program(spec, start=current, rng=rng)
        phases.append(annealed.stats)
        best = annealed.incumbent
        winner_phase = len(phases) - 1

        if self.polish:
            # Walk to the bottom of the basin the annealing found, and
            # also descend from the IM start: the reference reports the
            # best design seen anywhere, so it dominates the plain
            # descent heuristic (MH) by construction.
            polish = yield from descent_loop(
                budget=self.budget, name="SA-polish"
            ).program(spec, start=best)
            phases.append(polish.stats)
            best = polish.incumbent
            if polish.stats.improvements > 0:
                winner_phase = len(phases) - 1
            from_start = yield from descent_loop(
                budget=self.budget, name="SA-polish-from-start"
            ).program(spec, start=start)
            phases.append(from_start.stats)
            if from_start.incumbent.objective < best.objective:
                best = from_start.incumbent
                winner_phase = len(phases) - 1

        return DesignResult(
            self.name,
            valid=True,
            mapping=best.mapping,
            priorities=dict(best.priorities),
            message_delays=dict(best.design.message_delays),
            schedule=best.schedule,
            metrics=best.metrics,
            search=SearchStats.merged(phases, winner=winner_phase),
        )
