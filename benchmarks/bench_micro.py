"""Micro-benchmarks of the library's hot paths.

These are the inner loops every strategy evaluation exercises:

* list scheduling of the current application around frozen reservations,
  uncompiled (the seed path) and through a precompiled spec,
* one full engine evaluation and its cached re-evaluation,
* the full four-metric objective evaluation,
* best-fit bin packing at metric scale,
* schedule copying (the per-candidate setup cost).

The compiled-vs-uncompiled and cached-re-evaluation pairs track the
evaluation engine's speedup in the perf trajectory.

Run:  pytest benchmarks/bench_micro.py --benchmark-only
"""

import pytest

from repro.core.binpack import best_fit
from repro.core.initial_mapping import InitialMapper
from repro.core.metrics import evaluate_design
from repro.core.strategy import DesignEvaluator
from repro.core.transformations import CandidateDesign
from repro.engine import CompiledSpec, EngineConfig
from repro.sched.list_scheduler import ListScheduler
from repro.sched.priorities import hcp_priorities


@pytest.fixture(scope="module")
def prepared(scenarios):
    scenario = scenarios[16]
    mapper = InitialMapper(scenario.architecture)
    mapping, schedule = mapper.map_and_schedule(
        scenario.current, base=scenario.base_schedule
    )
    priorities = hcp_priorities(scenario.current, scenario.architecture.bus)
    return scenario, mapping, priorities, schedule


@pytest.fixture(scope="module")
def candidate(prepared):
    _, mapping, priorities, _ = prepared
    return CandidateDesign(mapping, dict(priorities))


def test_list_scheduling(benchmark, prepared):
    """One candidate evaluation's scheduling half."""
    scenario, mapping, priorities, _ = prepared
    scheduler = ListScheduler(scenario.architecture)

    result = benchmark(
        lambda: scheduler.try_schedule(
            scenario.current,
            mapping,
            base=scenario.base_schedule,
            priorities=priorities,
        )
    )
    assert result.success


def test_compiled_list_scheduling(benchmark, prepared):
    """The same candidate scheduling, through a precompiled spec.

    Compare against ``test_list_scheduling``: the delta is the
    per-candidate cost of re-expanding jobs, re-validating the horizon
    and re-deriving priorities that :class:`CompiledSpec` eliminates.
    """
    scenario, mapping, priorities, _ = prepared
    compiled = CompiledSpec(scenario.spec(), engine_core="object")
    scheduler = ListScheduler(scenario.architecture)

    result = benchmark(
        lambda: scheduler.try_schedule(
            scenario.current,
            mapping,
            priorities=priorities,
            compiled=compiled,
        )
    )
    assert result.success


def test_engine_first_evaluation(benchmark, prepared, candidate):
    """One cold engine evaluation (schedule + metrics, cache miss)."""
    scenario, _, _, _ = prepared
    evaluator = DesignEvaluator(scenario.spec(), EngineConfig(use_cache=False))

    out = benchmark(lambda: evaluator.evaluate(candidate))
    assert out is not None


def test_engine_cached_reevaluation(benchmark, prepared, candidate):
    """Re-evaluating a seen candidate: signature + cache hit only.

    This is the engine's repeated-evaluation fast path; SA revisits
    rejected design points constantly, so this bound dominates hot
    search loops.
    """
    scenario, _, _, _ = prepared
    evaluator = DesignEvaluator(scenario.spec())
    assert evaluator.evaluate(candidate) is not None  # warm the cache

    out = benchmark(lambda: evaluator.evaluate(candidate))
    assert out is not None
    assert evaluator.cache_hits > 0


def test_metric_evaluation(benchmark, prepared):
    """One candidate evaluation's metric half (C1P, C1m, C2P, C2m)."""
    scenario, _, _, schedule = prepared
    metrics = benchmark(lambda: evaluate_design(schedule, scenario.future))
    assert metrics.objective >= 0


def test_initial_mapping(benchmark, prepared):
    """The full IM step (HCP mapping + scheduling)."""
    scenario, _, _, _ = prepared
    mapper = InitialMapper(scenario.architecture)
    outcome = benchmark(
        lambda: mapper.try_map_and_schedule(
            scenario.current, base=scenario.base_schedule
        )
    )
    assert outcome is not None


def test_best_fit_at_metric_scale(benchmark):
    """~2000 objects into ~1200 bins, the C1m workload shape."""
    objects = [2 + (i * 7) % 7 for i in range(2000)]
    bins = [16] * 1200

    result = benchmark(lambda: best_fit(objects, bins))
    assert result.placed_total > 0


def test_schedule_copy(benchmark, prepared):
    """Per-candidate base-schedule copy cost."""
    scenario, _, _, _ = prepared
    base = scenario.base_schedule
    clone = benchmark(base.copy)
    assert clone.horizon == base.horizon
