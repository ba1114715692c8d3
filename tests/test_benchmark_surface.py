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
from repro.experiments.runner import strategy_for_family

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
    assert strategy.use_cache


def test_strategy_for_family_rejects_parallel_jobs():
    with pytest.raises(ValueError, match="jobs"):
        strategy_for_family("SA", 1, True, 2, 50)
