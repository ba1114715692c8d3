"""The call surface the benchmark of record (``perfbench/``) drives.

``perfbench/run.py`` calls the system through a handful of public entry
points, and ``perfbench/spans.py`` wraps named attributes of program
classes and modules when tracing.  Both live outside the tier-1 suite,
so a rename or signature change would otherwise surface only when the
benchmark runs.  These tests pin that surface without importing
anything from ``perfbench`` except the span table itself.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.initial_mapping import InitialMapper
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.core.transformations import CandidateDesign, SwapPriorities
from repro.engine import CompiledSpec, EvaluationEngine
from repro.experiments.runner import run_portfolio, strategy_for_family
from repro.gen import families
from repro.model.mapping import Mapping
from repro.sched.arrays import ArraySpec

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
RACE_MEMBERS = ("SA", "SA@2")


@pytest.fixture(scope="module")
def spec():
    return families.get_family("uniform-baseline").build("tiny", seed=1).spec()


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_has_an_owner(spans):
    """Each span wraps an attribute some owner defines itself (the
    tracer patches ``owner.__dict__[attr]``)."""
    for layer in spans.LAYERS:
        owners = layer.owners()
        assert any(layer.attr in vars(owner) for owner in owners), (
            f"{layer.name}: no owner in {layer.module} defines {layer.attr!r}"
        )


def test_strategy_for_family_positional_slots():
    """``run.py`` calls ``(name, seed, use_cache, jobs, sa_iterations)``
    positionally; the fifth slot must stay the SA iteration count."""
    strategy = strategy_for_family("SA", 1, True, 1, 50)
    assert isinstance(strategy, SimulatedAnnealing)
    assert strategy.iterations == 50
    assert strategy.engine.use_cache


def test_strategy_for_family_rejects_parallel_jobs():
    with pytest.raises(ValueError, match="jobs"):
        strategy_for_family("SA", 1, True, 2, 50)


def test_compiled_spec_array_lowering(spec):
    """The set-up phase compiles each cell for the array core."""
    assert isinstance(CompiledSpec(spec, engine_core="array").arrays, ArraySpec)


def test_strategy_for_family_writes_the_sqlite_store(spec, tmp_path):
    """The store phase passes the backend by keyword; a cold run writes
    rows and reports the store counters perfbench records, under the
    names it reads them by (each one the run's ``counters`` field)."""
    path = tmp_path / "results.db"
    result = strategy_for_family(
        "MH", 1, True, 1, 50, cache_store="sqlite", cache_path=str(path)
    ).design(spec)
    assert result.valid and path.exists()
    assert result.store_writes > 0
    assert result.store_misses > 0 and result.store_hits == 0
    counters = result.counters
    assert result.evaluations == counters.evaluations > 0
    assert result.store_hits == counters.store_hits
    assert result.store_misses == counters.store_misses
    assert result.store_writes == counters.store_writes


@pytest.mark.parametrize("shards", [0, 2])
def test_run_portfolio_keywords_and_result(spec, shards):
    """The race phase: keyword call, lockstep (``shards=0``) and sharded,
    read through ``best``, ``evaluations``, ``cache_hits`` (each the
    race's ``counters`` field) and (sharded) ``shard_busy_seconds``."""
    result = run_portfolio(
        spec, RACE_MEMBERS, seed=1, sa_iterations=50, shards=shards
    )
    assert result.best is not None and result.best.valid
    assert result.best is result.winner.result
    assert result.evaluations == result.counters.evaluations > 0
    assert result.cache_hits == result.counters.cache_hits >= 0
    if shards:
        assert len(result.shard_busy_seconds) == shards
        assert all(busy >= 0.0 for busy in result.shard_busy_seconds)


@pytest.mark.parametrize(
    "batch", [False, True], ids=["evaluate", "evaluate_many"]
)
def test_each_cold_evaluation_runs_the_kernel_span_once(
    spec, monkeypatch, batch
):
    """The ``sched.kernel`` span wraps ``ArraySpec.run_kernel`` and
    counts ``sched.kernel.ok`` from the state's ``success``: a cold
    evaluation of each of N distinct designs runs it exactly once,
    with ``success`` True exactly when the outcome is valid."""
    compiled = CompiledSpec(spec)
    mapping, _ = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    start = CandidateDesign(mapping, dict(compiled.default_priorities))
    pids = [p.id for p in spec.current.processes]
    designs = [start] + [
        SwapPriorities(a, b).apply(start) for a, b in zip(pids, pids[1:])
    ]
    # Every process on one node does not schedule on this spec.
    crowded = Mapping(
        spec.current,
        spec.architecture,
        {pid: spec.architecture.node_ids[0] for pid in pids},
    )
    designs.append(CandidateDesign(crowded, start.priorities))
    assert len({compiled.signature(d) for d in designs}) == len(designs)
    states = []
    run_kernel = ArraySpec.run_kernel

    def spy(self, st):
        run_kernel(self, st)
        states.append(st)

    monkeypatch.setattr(ArraySpec, "run_kernel", spy)
    with EvaluationEngine(spec) as engine:
        if batch:
            outcomes = engine.evaluate_many(designs)
        else:
            outcomes = [engine.evaluate(d) for d in designs]
    assert len(states) == len(designs)
    assert [st.success for st in states] == [o is not None for o in outcomes]
    assert outcomes[0] is not None and outcomes[-1] is None
