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

from repro.core.simulated_annealing import SimulatedAnnealing
from repro.engine import CompiledSpec
from repro.experiments.runner import run_portfolio, strategy_for_family
from repro.gen import families
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
    rows and reports the store counters perfbench records."""
    path = tmp_path / "results.db"
    result = strategy_for_family(
        "MH", 1, True, 1, 50, cache_store="sqlite", cache_path=str(path)
    ).design(spec)
    assert result.valid and path.exists()
    assert result.store_writes > 0
    assert result.store_misses > 0 and result.store_hits == 0


@pytest.mark.parametrize("shards", [0, 2])
def test_run_portfolio_keywords_and_result(spec, shards):
    """The race phase: keyword call, lockstep (``shards=0``) and sharded,
    read through ``best``, ``evaluations``, ``cache_hits`` and (sharded)
    ``shard_busy_seconds``."""
    result = run_portfolio(
        spec, RACE_MEMBERS, seed=1, sa_iterations=50, shards=shards
    )
    assert result.best is not None and result.best.valid
    assert result.evaluations > 0
    assert result.cache_hits >= 0
    if shards:
        assert len(result.shard_busy_seconds) == shards
        assert all(busy >= 0.0 for busy in result.shard_busy_seconds)
