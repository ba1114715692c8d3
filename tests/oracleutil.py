"""The test-side oracles.

* The object-core oracle: search programs served by the pinned object
  scheduler and object pricing instead of the runtime's array kernels.
* The decoded-schedule neighbourhood: the Mapping Heuristic's candidate
  scoring and schedule neighbours read off an object
  :class:`~repro.sched.schedule.SystemSchedule`, the reference the
  array scorer (:class:`repro.search.proposers.Neighbourhood`) must
  match.

Imported by name from any test module (``tests/`` is on the import path
through its ``conftest.py``).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from repro.core.slack import slack_fragmentation
from repro.engine import CompiledSpec, evaluate_candidate
from repro.sched.list_scheduler import ListScheduler
from repro.sched.schedule import SystemSchedule
from repro.search.loop import drive
from repro.serialize import schedule_to_dict
from repro.utils.timemath import periodic_windows


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


# ----------------------------------------------------------------------
# the decoded-schedule neighbourhood
# ----------------------------------------------------------------------
def window_slack_profile(
    schedule: SystemSchedule, window_length: int
) -> Dict[str, List[int]]:
    """Per-node slack inside each consecutive window of the horizon:
    ``profile[node][w]`` is the free time of ``node`` inside window
    ``w``."""
    windows = periodic_windows(schedule.horizon, window_length)
    return {
        node_id: [schedule.slack_within(node_id, w) for w in windows]
        for node_id in schedule.architecture.node_ids
    }


def select_candidates(spec, evaluated, pool_size):
    """Top current-application processes by improvement potential,
    scored on the decoded schedule: the node's slack fragmentation,
    plus 1 if an instance runs in the node's worst ``T_min`` window;
    larger WCETs, then smaller ids, win ties."""
    schedule = evaluated.schedule
    mapping = evaluated.mapping
    frag = slack_fragmentation(schedule)
    profile = window_slack_profile(schedule, spec.future.t_min)
    worst_index = {
        node_id: min(range(len(slacks)), key=lambda i: slacks[i])
        for node_id, slacks in profile.items()
    }
    windows = periodic_windows(schedule.horizon, spec.future.t_min)
    horizon = spec.effective_horizon()

    scored: List[Tuple[float, int, str]] = []
    for proc in spec.current.processes:
        node_id = mapping.node_of(proc.id)
        score = frag[node_id].fragmentation
        wcet = proc.wcet_on(node_id)
        worst = windows[worst_index[node_id]]
        period = spec.current.graph_of(proc.id).period
        for instance in range(horizon // period):
            entry = schedule.entry_of(proc.id, instance)
            if entry is not None and entry.interval.overlaps(worst):
                score += 1.0
                break
        scored.append((score, wcet, proc.id))
    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    return [pid for _, _, pid in scored[:pool_size]]


def schedule_neighbours(spec, schedule, process_id, node_id):
    """Current-application processes scheduled adjacent to
    ``process_id`` on ``node_id``, in the decoded schedule."""
    entries = [
        e
        for e in schedule.entries_on(node_id)
        if not e.frozen and e.process_id in spec.current
    ]
    neighbours: List[str] = []
    for i, entry in enumerate(entries):
        if entry.process_id != process_id:
            continue
        if i > 0 and entries[i - 1].process_id != process_id:
            neighbours.append(entries[i - 1].process_id)
        if i + 1 < len(entries) and entries[i + 1].process_id != process_id:
            neighbours.append(entries[i + 1].process_id)
    return list(dict.fromkeys(neighbours))
