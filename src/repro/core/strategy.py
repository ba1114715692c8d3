"""End-to-end design flow: specs, evaluation, results, strategy registry.

The mapping strategies (AH, MH, SA) share one contract:

1. a :class:`DesignSpec` describes the problem -- platform, frozen
   existing schedule, current application, future characterization and
   objective weights;
2. ``strategy.design(spec)`` returns a :class:`DesignResult` with the
   mapping, priorities, schedule, metrics and accounting data.

:class:`DesignEvaluator` is the shared inner loop: schedule a candidate
``(mapping, priorities)`` around the frozen reservations and price the
result with the slide-14 objective.  Invalid candidates (deadline miss,
unpackable message) evaluate to ``None`` and are rejected by every
strategy, which enforces the paper's requirement (a) throughout the
search.  The heavy lifting -- problem compilation, memoization and
scoring -- lives in :mod:`repro.engine`; the evaluator here is the
strategy-facing facade over one
:class:`repro.engine.engine.EvaluationEngine`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.search.stats import SearchStats

from repro.core.future import FutureCharacterization
from repro.core.metrics import DesignMetrics, ObjectiveWeights
from repro.engine.cache import DEFAULT_MAX_ENTRIES, CacheStats
from repro.engine.engine import EngineConfig, EngineCounters, EvaluationEngine
from repro.engine.evaluation import EvaluatedDesign
from repro.engine.store import StoreStats
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.core.transformations import CandidateDesign
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
    meeting requirement (a); the remaining fields are then ``None``.
    """

    strategy: str
    valid: bool
    mapping: Optional[Mapping] = None
    priorities: Optional[PriorityMap] = None
    message_delays: Optional[Dict[str, int]] = None
    schedule: Optional[SystemSchedule] = None
    metrics: Optional[DesignMetrics] = None
    runtime_seconds: float = 0.0
    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Stage-time buckets of the evaluation pipeline (scheduling pass,
    #: metric pricing, schedule decode), in wall nanoseconds.
    sched_ns: int = 0
    metrics_ns: int = 0
    decode_ns: int = 0
    #: Persistent result-store accounting: probes past the resident
    #: cache tier, rows flushed, and database open/commit wall time.
    #: All zero on the in-memory backend.
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    store_open_ns: int = 0
    store_commit_ns: int = 0
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

    def record_engine_stats(self, evaluator: "DesignEvaluator") -> "DesignResult":
        """Copy the evaluator's accounting into this result, in place."""
        self.evaluations = evaluator.evaluations
        self.cache_hits = evaluator.cache_hits
        self.cache_misses = evaluator.cache_misses
        self.sched_ns = evaluator.sched_ns
        self.metrics_ns = evaluator.metrics_ns
        self.decode_ns = evaluator.decode_ns
        store = evaluator.store_stats()
        self.store_hits = store.hits
        self.store_misses = store.misses
        self.store_writes = store.writes
        self.store_open_ns = store.open_ns
        self.store_commit_ns = store.commit_ns
        return self

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


class DesignEvaluator:
    """Schedules and prices :class:`CandidateDesign` points.

    Since the evaluation-engine refactor this class is a thin facade
    over :class:`repro.engine.engine.EvaluationEngine`: the engine owns
    the compiled problem, the memo cache and the solver, while this
    class keeps the historical strategy-facing API.

    Parameters
    ----------
    spec:
        The design problem (compiled once by the engine).
    config:
        The user-set engine values: cache on/off and the result store
        (a sqlite store survives restarts and is shared read-only with
        the shards of a distributed race).
    max_cache_entries:
        LRU bound of the engine's cache (``None`` = unbounded).
    store_read_only:
        Open the sqlite store as a read-only shard view (the
        distributed race's per-shard engines): warm reads, no rw lock;
        new rows are buffered for the coordinating parent to drain and
        persist.  Ignored by the memory backend.
    """

    def __init__(
        self,
        spec: DesignSpec,
        config: EngineConfig = EngineConfig(),
        max_cache_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        store_read_only: bool = False,
    ):
        self.spec = spec
        self.engine = EvaluationEngine(
            spec, config, max_cache_entries, store_read_only
        )

    def evaluate(self, design: "CandidateDesign") -> Optional[EvaluatedDesign]:
        """Schedule the candidate; return ``None`` when it is invalid."""
        return self.engine.evaluate(design)

    def evaluate_many(
        self, designs: Sequence["CandidateDesign"]
    ) -> List[Optional[EvaluatedDesign]]:
        """Score a batch of candidates, preserving input order."""
        return self.engine.evaluate_many(designs)

    @property
    def compiled(self):
        """The engine's compiled problem (shared with Initial Mapping)."""
        return self.engine.compiled

    @property
    def evaluations(self) -> int:
        return self.engine.evaluations

    @property
    def cache_hits(self) -> int:
        return self.engine.cache_hits

    @property
    def cache_misses(self) -> int:
        return self.engine.cache_misses

    @property
    def sched_ns(self) -> int:
        return self.engine.sched_ns

    @property
    def metrics_ns(self) -> int:
        return self.engine.metrics_ns

    @property
    def decode_ns(self) -> int:
        return self.engine.decode_ns

    @property
    def store_hits(self) -> int:
        return self.engine.store_hits

    @property
    def store_misses(self) -> int:
        return self.engine.store_misses

    @property
    def store_writes(self) -> int:
        return self.engine.store_writes

    def store_stats(self) -> StoreStats:
        """Persistent-store accounting (all-zero on the memory backend)."""
        return self.engine.store_stats()

    def drain_store_rows(self) -> List[tuple]:
        """Encoded rows a read-only shard view buffered (else empty)."""
        return self.engine.drain_store_rows()

    def absorb_store_rows(self, rows: Sequence[tuple]) -> None:
        """Persist rows drained from shard engines (parent side)."""
        self.engine.absorb_store_rows(rows)

    def cache_stats(self) -> CacheStats:
        return self.engine.cache_stats()

    def counters(self) -> EngineCounters:
        """Snapshot of every engine counter (per-search attribution)."""
        return self.engine.counters()

    def close(self) -> None:
        """Close the engine and flush its store (idempotent)."""
        self.engine.close()

    def __enter__(self) -> "DesignEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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
