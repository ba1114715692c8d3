"""Shared evaluation engine: compiled specs, caching, candidate solving.

This package separates problem *construction* from repeated *solving*:

* :mod:`~repro.engine.compiled_spec` -- :class:`CompiledSpec`,
  everything derivable from a :class:`repro.core.strategy.DesignSpec`
  alone (job expansion, horizon validation, default priorities, the
  frozen base-schedule template, candidate signatures);
* :mod:`~repro.engine.evaluation` -- the pure per-candidate evaluation
  primitive and :class:`EvaluatedDesign`;
* :mod:`~repro.engine.cache` -- :class:`EvaluationCache`, memoized
  outcomes with hit/miss accounting (a thin layer over a result
  store);
* :mod:`~repro.engine.store` -- :class:`ResultStore` backends: the
  in-memory LRU and the persistent sqlite store that serves results
  across processes and runs;
* :mod:`~repro.engine.delta` -- :class:`DeltaEvaluator`, the move-aware
  incremental kernel: reschedule a one-move child from its parent's
  trace checkpoints, bit-identical to a cold evaluation.  Off the
  production path (the engine solves every miss cold); kept until the
  benchmark of record stops tracing it;
* :mod:`~repro.engine.engine` -- :class:`EvaluationEngine`, the facade
  composing the above; every strategy's inner loop.  Its user-set
  values travel as one frozen :class:`EngineConfig`.

See DESIGN.md at the repository root for the layer diagram and the
engine contracts.
"""

from repro.engine.cache import CacheStats, EvaluationCache
from repro.engine.compiled_spec import CompiledSpec
from repro.engine.delta import DeltaEvaluator
from repro.engine.engine import EngineConfig, EngineCounters, EvaluationEngine
from repro.engine.evaluation import EvaluatedDesign, evaluate_candidate
from repro.engine.store import (
    MemoryResultStore,
    ResultStore,
    SqliteResultStore,
    StoreStats,
    make_store,
)

__all__ = [
    "CacheStats",
    "CompiledSpec",
    "DeltaEvaluator",
    "EngineConfig",
    "EngineCounters",
    "EvaluatedDesign",
    "EvaluationCache",
    "EvaluationEngine",
    "MemoryResultStore",
    "ResultStore",
    "SqliteResultStore",
    "StoreStats",
    "evaluate_candidate",
    "make_store",
]
