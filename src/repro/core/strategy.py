"""End-to-end design flow: specs, evaluation, results, strategy registry.

The mapping strategies (AH, MH, SA) share one contract:

1. a :class:`DesignSpec` describes the problem -- platform, frozen
   existing schedule, current application, future characterization and
   objective weights;
2. ``strategy.design(spec)`` returns a :class:`DesignResult` with the
   mapping, priorities, schedule, metrics and accounting data.

Every strategy that searches opens one
:class:`repro.engine.engine.EvaluationEngine`, the shared inner loop:
it schedules a candidate ``(mapping, priorities)`` around the frozen
reservations and prices the result with the slide-14 objective.
Invalid candidates (deadline miss, unpackable message) evaluate to
``None`` and are rejected by every strategy, which enforces the
paper's requirement (a) throughout the search.  The engine's
:class:`~repro.engine.engine.EngineCounters` is the result's
accounting record (``DesignResult.counters``).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.search.stats import SearchStats

from repro.core.future import FutureCharacterization
from repro.core.metrics import DesignMetrics, ObjectiveWeights
from repro.engine.engine import EngineCounters
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.sched.priorities import PriorityMap
from repro.sched.schedule import SystemSchedule
from repro.utils.errors import ConfigError


@dataclass
class DesignSpec:
    """One incremental design problem instance.

    Attributes
    ----------
    architecture:
        The platform (nodes + TDMA bus).
    base_schedule:
        Schedule of the existing applications with frozen entries; the
        current application is placed around them.  ``None`` means a
        green-field design (no existing applications).
    current:
        The application to map and schedule now.
    future:
        Characterization of the expected future applications.
    weights:
        Objective-function weights.
    horizon:
        Schedule horizon; defaults to the base schedule's horizon or to
        the current application's hyperperiod.
    """

    architecture: Architecture
    current: Application
    future: FutureCharacterization
    base_schedule: Optional[SystemSchedule] = None
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    horizon: Optional[int] = None

    def effective_horizon(self) -> int:
        """The horizon the design will be scheduled over."""
        if self.base_schedule is not None:
            return self.base_schedule.horizon
        if self.horizon is not None:
            return self.horizon
        return self.current.hyperperiod()


@dataclass
class DesignResult:
    """Outcome of running one strategy on one spec.

    ``valid`` is False when the strategy could not find any design
    meeting requirement (a); the design fields are then ``None``.

    ``counters`` is the run's engine accounting.  A valid MH or SA
    result carries its engine's :class:`EngineCounters`; a run that
    evaluates nothing through an engine (AH, or a failed Initial
    Mapping) reports one evaluation and nothing else.  The ``evaluations`` and ``store_*``
    properties read it under the names perfbench records.
    """

    strategy: str
    valid: bool
    mapping: Optional[Mapping] = None
    priorities: Optional[PriorityMap] = None
    message_delays: Optional[Dict[str, int]] = None
    schedule: Optional[SystemSchedule] = None
    metrics: Optional[DesignMetrics] = None
    runtime_seconds: float = 0.0
    counters: EngineCounters = EngineCounters(0, 0, 0)
    #: Per-search accounting of the kernel loops behind this result
    #: (steps, proposals, evaluations-to-incumbent); ``None`` for
    #: strategies that do not search (AH).
    search: Optional["SearchStats"] = None

    @property
    def objective(self) -> float:
        """The achieved objective; +inf for invalid results."""
        if not self.valid or self.metrics is None:
            return float("inf")
        return self.metrics.objective

    @property
    def evaluations(self) -> int:
        return self.counters.evaluations

    @property
    def store_hits(self) -> int:
        return self.counters.store_hits

    @property
    def store_misses(self) -> int:
        return self.counters.store_misses

    @property
    def store_writes(self) -> int:
        return self.counters.store_writes

    def design_identity(self) -> tuple:
        """Canonical identity of the design, for determinism comparisons.

        Two runs are "the same design" when mapping, priorities,
        message delays and objective all agree; invalid results are
        identified by their (in)validity alone.  This is the single
        definition used by the family smoke checks, the portfolio
        winner tie-break and the CLI determinism gates.
        """
        if not self.valid:
            return ("invalid",)
        return (
            tuple(sorted(self.mapping.as_dict().items())),
            tuple(sorted(self.priorities.items())),
            tuple(sorted((self.message_delays or {}).items())),
            self.objective,
        )


def make_strategy(name: str, **kwargs):
    """Instantiate a strategy by its paper acronym: ``AH``, ``MH``, ``SA``.

    Extra keyword arguments are forwarded to the strategy constructor.
    """
    from repro.core.adhoc import AdHocStrategy
    from repro.core.mapping_heuristic import MappingHeuristic
    from repro.core.simulated_annealing import SimulatedAnnealing

    registry = {
        "AH": AdHocStrategy,
        "MH": MappingHeuristic,
        "SA": SimulatedAnnealing,
    }
    key = name.upper()
    if key not in registry:
        raise ConfigError(
            f"unknown strategy {name!r}; choose from {sorted(registry)}"
        )
    return registry[key](**kwargs)


def design_application(spec: DesignSpec, strategy: str = "MH", **kwargs) -> DesignResult:
    """Convenience wrapper: build the named strategy and run it on ``spec``."""
    return make_strategy(strategy, **kwargs).design(spec)


def fits_future_application(
    designed_schedule: SystemSchedule,
    future_application: Application,
    architecture: Architecture,
) -> bool:
    """Whether ``future_application`` can be mapped on the designed system.

    This is the acceptance test of the paper's third experiment
    (slide 17): after the current application has been designed, a
    concrete future application arrives; it fits when the Initial
    Mapper finds a valid mapping and schedule in the remaining slack
    without touching anything already placed.
    """
    from repro.core.initial_mapping import InitialMapper

    mapper = InitialMapper(architecture)
    outcome = mapper.try_map_and_schedule(
        future_application, base=designed_schedule
    )
    return outcome is not None


def timed(func):
    """Decorator measuring a strategy's ``design`` wall-clock runtime.

    The wrapped method must return a :class:`DesignResult`; its
    ``runtime_seconds`` field is filled in.
    """

    @functools.wraps(func)
    def wrapper(self, spec: DesignSpec) -> DesignResult:
        start = time.perf_counter()
        result = func(self, spec)
        result.runtime_seconds = time.perf_counter() - start
        return result

    return wrapper
