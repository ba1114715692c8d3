"""Tests for the structure-of-arrays scheduler core (the runtime's).

The contract under test: the array kernel of :mod:`repro.sched.arrays`
is **byte-identical** to the pinned object core -- schedules, decoded
traces, metrics, failure reasons and delta chains match on every
registered scenario family, and seeded strategy runs produce the same
design under either core (see also ``tests/test_object_oracle.py``).
Plus the core-name check: unknown cores are rejected.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracleutil import oracle_identity, production_identity
from moveutil import remap_moves
from repro.core.initial_mapping import InitialMapper
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.core.transformations import (
    CandidateDesign,
    DelayMessage,
    RemapProcess,
    SwapPriorities,
)
from repro.engine import evaluate_candidate
from repro.engine.compiled_spec import CompiledSpec
from repro.engine.delta import DeltaEvaluator
from repro.gen import families
from repro.gen.scenario import ScenarioParams, build_scenario
from repro.sched.arrays import ArrayRunState, resolve_engine_core
from repro.sched.list_scheduler import ListScheduler
from repro.sched.trace import heap_key


@pytest.fixture(scope="module")
def spec():
    """A small but non-trivial scenario (frozen base + current app)."""
    return build_scenario(
        ScenarioParams(n_existing=12, n_current=8), seed=3
    ).spec()


def occupancy(schedule):
    """Canonical rendering of a schedule's full occupancy."""
    nodes = {
        node_id: sorted(
            (e.process_id, e.instance, e.start, e.end, e.frozen)
            for e in schedule.entries_on(node_id)
        )
        for node_id in schedule.architecture.node_ids
    }
    bus = sorted(
        (o.message_id, o.instance, o.node_id, o.round_index, o.size, o.frozen)
        for o in schedule.bus.all_entries()
    )
    return nodes, bus


def trace_identity(trace):
    """Canonical rendering of a schedule trace."""
    return (
        [tuple(event) for event in trace.events],
        trace.ready_at,
        trace.pop_index,
        trace.node_last,
        trace.bus_last,
    )


def im_design(spec, compiled):
    """The Initial Mapping candidate (the start of every search)."""
    outcome = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    assert outcome is not None
    return CandidateDesign(outcome[0], dict(compiled.default_priorities))


def systematic_moves(spec, design, limit_delays: int = 8):
    """Every remap, a ladder of swaps, and message delays up/down."""
    pids = [p.id for p in spec.current.processes]
    moves = list(remap_moves(design.mapping, pids))
    moves.extend(SwapPriorities(a, b) for a, b in zip(pids, pids[1:]))
    moves.extend(
        DelayMessage(m.id, delta)
        for m in spec.current.messages[:limit_delays]
        for delta in (+1, -1)
    )
    return moves


# ----------------------------------------------------------------------
# core selection
# ----------------------------------------------------------------------
class TestCoreSelection:
    def test_known_cores_pass_through(self):
        assert resolve_engine_core("array") == "array"
        assert resolve_engine_core("object") == "object"

    def test_unknown_core_is_rejected(self):
        with pytest.raises(ValueError, match="unknown engine core"):
            resolve_engine_core("vectorised")

    def test_compiled_spec_rejects_unknown_core(self, spec):
        with pytest.raises(ValueError):
            CompiledSpec(spec, engine_core="simd")


# ----------------------------------------------------------------------
# the integer heap key is order-isomorphic to the legacy tuple key
# ----------------------------------------------------------------------
class TestRankIsomorphism:
    def test_rank_order_equals_legacy_heap_key_order(self, spec):
        compiled = CompiledSpec(spec)
        arr = compiled.arrays
        design = im_design(spec, compiled)
        cand = arr.lower_candidate(design)
        jobs = compiled.job_table.jobs
        legacy = sorted(
            range(arr.n_jobs),
            key=lambda j: heap_key(
                jobs[arr.job_keys[j]], design.priorities
            ),
        )
        assert cand.job_of_rank == legacy
        assert [cand.rank_of_job[j] for j in cand.job_of_rank] == list(
            range(arr.n_jobs)
        )


# ----------------------------------------------------------------------
# cold equivalence on every registered family
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=32)
def _family_cell(family_name: str, seed: int):
    family = families.get_family(family_name)
    spec = family.build(family.smallest_preset, seed=seed).spec()
    compiled_obj = CompiledSpec(spec, engine_core="object")
    compiled_arr = CompiledSpec(spec, engine_core="array")
    scheduler = ListScheduler(spec.architecture)
    return spec, compiled_obj, compiled_arr, scheduler


@pytest.mark.parametrize("family_name", families.family_names())
@pytest.mark.parametrize("seed", [1, 2])
def test_cold_equivalence_on_family(family_name, seed):
    """Schedules, traces and metrics match on the IM neighbourhood."""
    spec, compiled_obj, compiled_arr, scheduler = _family_cell(
        family_name, seed
    )
    arr = compiled_arr.arrays
    design = im_design(spec, compiled_obj)
    compared = 0
    for child in [design] + [
        m.apply(design) for m in systematic_moves(spec, design)
    ]:
        cold = evaluate_candidate(
            spec, compiled_obj, scheduler, child, record_trace=True
        )
        fast = evaluate_candidate(
            spec, compiled_arr, scheduler, child, record_trace=True
        )
        assert (cold is None) == (fast is None)
        if cold is None:
            continue
        assert cold.metrics == fast.metrics
        assert occupancy(cold.schedule) == occupancy(fast.schedule)
        assert isinstance(fast.trace, ArrayRunState)
        assert trace_identity(cold.trace) == trace_identity(
            arr.to_schedule_trace(fast.trace)
        )
        compared += 1
    assert compared > 0


def test_failure_reasons_match():
    """Invalid children report the object kernel's exact failure string."""
    spec = build_scenario(
        ScenarioParams(n_existing=14, n_current=10, current_utilization=0.3),
        seed=4,
    ).spec()
    compiled = CompiledSpec(spec)
    arr = compiled.arrays
    scheduler = ListScheduler(spec.architecture)
    design = im_design(spec, compiled)
    failures = 0
    for move in systematic_moves(spec, design, limit_delays=20):
        child = move.apply(design)
        cold = scheduler.try_schedule(
            spec.current,
            child.mapping,
            priorities=child.priorities,
            message_delays=child.message_delays,
            compiled=compiled,
        )
        state = arr.schedule_design(child)
        assert state.success == cold.success, move.describe()
        if cold.success:
            continue
        assert state.failure_reason == cold.failure_reason
        assert state.scheduled == cold.scheduled_jobs
        assert state.total == cold.total_jobs
        failures += 1
    assert failures > 0, "scenario produced no invalid children to compare"


# ----------------------------------------------------------------------
# delta chains: array resumes == object cold, children chain as parents
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=32)
def _delta_cell(family_name: str, seed: int):
    spec, compiled_obj, compiled_arr, scheduler = _family_cell(
        family_name, seed
    )
    delta = DeltaEvaluator(compiled_arr, scheduler)
    parent = evaluate_candidate(
        spec,
        compiled_arr,
        scheduler,
        im_design(spec, compiled_arr),
        record_trace=True,
    )
    assert parent is not None
    return spec, compiled_obj, compiled_arr, scheduler, delta, parent


@pytest.mark.parametrize("family_name", families.family_names())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_array_delta_equals_object_cold_property(family_name, data):
    """Random move chains on every family: array delta == object cold."""
    seed = data.draw(st.sampled_from([1, 2]), label="scenario seed")
    spec, compiled_obj, compiled_arr, scheduler, delta, parent = _delta_cell(
        family_name, seed
    )
    arr = compiled_arr.arrays
    pids = [p.id for p in spec.current.processes]
    messages = [m.id for m in spec.current.messages]
    current = parent
    n_moves = data.draw(st.integers(min_value=1, max_value=5), label="moves")
    for _ in range(n_moves):
        kind = data.draw(
            st.sampled_from(
                ["remap", "swap", "delay"] if messages else ["remap", "swap"]
            ),
            label="kind",
        )
        if kind == "remap":
            pid = data.draw(st.sampled_from(pids), label="pid")
            options = [
                n
                for n in spec.current.process(pid).allowed_nodes
                if n != current.design.mapping.node_of(pid)
            ]
            if not options:
                continue
            move = RemapProcess(
                pid, data.draw(st.sampled_from(options), label="node")
            )
        elif kind == "swap":
            if len(pids) < 2:
                continue
            first = data.draw(st.sampled_from(pids), label="first")
            second = data.draw(st.sampled_from(pids), label="second")
            if first == second:
                continue
            move = SwapPriorities(first, second)
        else:
            move = DelayMessage(
                data.draw(st.sampled_from(messages), label="message"),
                data.draw(st.sampled_from([1, -1]), label="delta"),
            )
        child = move.apply(current.design)
        cold = evaluate_candidate(
            spec, compiled_obj, scheduler, child, record_trace=True
        )
        out, _ = delta.evaluate_move(current, move, child)
        assert (cold is None) == (out is None), move.describe()
        if cold is None:
            continue
        assert occupancy(cold.schedule) == occupancy(out.schedule)
        assert cold.metrics == out.metrics
        assert trace_identity(cold.trace) == trace_identity(
            arr.to_schedule_trace(out.trace)
        )
        current = out


# ----------------------------------------------------------------------
# seeded strategies: byte-identical designs under either core (MH on
# every family's smallest preset: tests/test_object_oracle.py)
# ----------------------------------------------------------------------
class TestSeededStrategyEquivalence:
    def test_sa_identical_across_cores(self, spec):
        def strategy():
            return SimulatedAnnealing(iterations=120, seed=3)

        assert oracle_identity(strategy(), spec) == production_identity(
            strategy(), spec
        )

