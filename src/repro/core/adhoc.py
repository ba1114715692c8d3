"""The Ad-Hoc (AH) baseline strategy.

Slide 14 describes AH as providing "little support for incremental
design": it maps and schedules the current application for *validity
and performance only* -- the straightforward design flow a team would
use when ignoring future applications.  Concretely, AH is the Initial
Mapping step alone: HCP-seeded earliest-finish mapping and list
scheduling around the frozen existing reservations, with no
metric-driven improvement afterwards.

AH results are valid (requirement (a) holds) but typically score a poor
objective value, which is exactly the gap the paper's first and third
experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.initial_mapping import InitialMapper
from repro.core.strategy import DesignResult, DesignSpec, timed
from repro.engine import CompiledSpec, EngineConfig
from repro.search.budget import Budget

@dataclass
class AdHocStrategy:
    """Validity-only design: Initial Mapping with no optimization.

    ``engine`` and ``budget`` exist so every strategy shares one
    construction signature (the experiment runner passes them
    uniformly); AH performs a single evaluation and opens no engine,
    so neither changes its behavior.
    """

    engine: EngineConfig = EngineConfig()
    budget: Optional[Budget] = None

    name = "AH"
    #: AH finishes at priming (no evaluation yields), so there is
    #: nothing to steal or resume; shard drivers never checkpoint it.
    resumable = False

    @timed
    def design(self, spec: DesignSpec) -> DesignResult:
        """Run IM once and report its design as-is."""
        return self._design(spec, CompiledSpec(spec))

    def _design(self, spec: DesignSpec, compiled) -> DesignResult:
        from repro.core.metrics import evaluate_design

        mapper = InitialMapper(spec.architecture)
        outcome = mapper.try_map_and_schedule(
            spec.current,
            base=spec.base_schedule,
            horizon=None if spec.base_schedule else spec.horizon,
            compiled=compiled,
        )
        if outcome is None:
            return DesignResult(self.name, valid=False, evaluations=1)
        mapping, schedule = outcome
        metrics = evaluate_design(schedule, spec.future, spec.weights)
        priorities = dict(compiled.default_priorities)
        return DesignResult(
            self.name,
            valid=True,
            mapping=mapping,
            priorities=priorities,
            schedule=schedule,
            metrics=metrics,
            evaluations=1,
        )

    def search_program(self, spec: DesignSpec, compiled):
        """AH as a (search-free) kernel program for the portfolio.

        Computes the Initial Mapping inline against the shared
        compiled spec and returns its priced design without consuming
        any of the racing budget.
        """
        return self._design(spec, compiled)
        yield  # pragma: no cover - unreachable; makes this a generator
