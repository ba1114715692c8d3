"""The object-core oracle: search programs served by the pinned object
scheduler and object pricing instead of the runtime's array kernels.

Imported by name from any test module (``tests/`` is on the import path
through its ``conftest.py``).
"""

from __future__ import annotations

import json

from repro.engine import CompiledSpec, evaluate_candidate
from repro.sched.list_scheduler import ListScheduler
from repro.search.loop import drive
from repro.serialize import schedule_to_dict


class ObjectOracle:
    """A test-side evaluator: every request is served cold, uncached, by
    :func:`evaluate_candidate` over ``CompiledSpec(spec,
    engine_core="object")`` -- the ``ListScheduler`` pass priced by
    ``core.metrics``.  Counts evaluations the way the engine does."""

    def __init__(self, spec):
        self.compiled = CompiledSpec(spec, engine_core="object")
        assert not self.compiled.use_arrays
        self.scheduler = ListScheduler(spec.architecture)
        self.evaluations = 0

    def evaluate(self, design):
        self.evaluations += 1
        return evaluate_candidate(
            self.compiled.spec, self.compiled, self.scheduler, design
        )

    def evaluate_many(self, designs):
        return [self.evaluate(design) for design in designs]


def design_through_oracle(strategy, spec):
    """Run ``strategy``'s search program with every request served by an
    :class:`ObjectOracle`; returns ``(result, oracle)``."""
    oracle = ObjectOracle(spec)
    result = drive(strategy.search_program(spec, oracle.compiled), oracle)
    return result, oracle


def _identity(result, evaluations):
    schedule = None
    if result.valid:
        schedule = json.dumps(schedule_to_dict(result.schedule), sort_keys=True)
    return result.design_identity(), evaluations, schedule


def oracle_identity(strategy, spec):
    """Design identity, evaluation count and serialized schedule of
    ``strategy`` on the object core, comparable with
    :func:`production_identity`."""
    result, oracle = design_through_oracle(strategy, spec)
    return _identity(result, oracle.evaluations)


def production_identity(strategy, spec):
    """The same for the production ``design()`` run."""
    result = strategy.design(spec)
    return _identity(result, result.evaluations)
