"""Tests for the incremental (delta) evaluation kernel.

The kernel is off the production path (the engine solves every
candidate cold); it stays, with these direct tests, until the benchmark
of record stops tracing it.  The contract under test: for any parent
design and any transformation, evaluating the child through the delta
path produces an outcome **bit-identical** to a cold evaluation --
schedule occupancy, metrics, validity verdicts, failure reasons, and
even the recorded trace (so children chain as parents).  Plus: move
footprints, and seeded searches served through the kernel (the
engine's former delta mode) landing on the production cold path's
designs.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moveutil import remap_moves

from repro.core.improvement import DescentParams, descent_loop
from repro.core.initial_mapping import InitialMapper
from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.core.transformations import (
    CandidateDesign,
    DelayMessage,
    RemapProcess,
    SwapPriorities,
)
from repro.engine import EngineConfig, EvaluationEngine, evaluate_candidate
from repro.engine.compiled_spec import CompiledSpec
from repro.engine.delta import DeltaEvaluator
from repro.gen import families
from repro.sched.list_scheduler import ListScheduler


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


def im_parent(spec, compiled, scheduler):
    """A traced parent evaluation at the Initial Mapping."""
    mapper = InitialMapper(spec.architecture)
    outcome = mapper.try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    assert outcome is not None
    mapping, _ = outcome
    parent = evaluate_candidate(
        spec,
        compiled,
        scheduler,
        CandidateDesign(mapping, dict(compiled.default_priorities)),
        record_trace=True,
    )
    assert parent is not None
    return parent


def systematic_moves(spec, parent, limit_delays: int = 8):
    """Every remap, a ladder of swaps, and message delays up/down."""
    moves = list(
        remap_moves(parent.design.mapping, [p.id for p in spec.current.processes])
    )
    pids = [p.id for p in spec.current.processes]
    moves.extend(
        SwapPriorities(a, b) for a, b in zip(pids, pids[1:])
    )
    moves.extend(
        DelayMessage(m.id, delta)
        for m in spec.current.messages[:limit_delays]
        for delta in (+1, -1)
    )
    return moves


def drive_through_delta(program, compiled, scheduler):
    """Run a search program with every moves request served by the delta
    kernel (each child resumed from its traced parent) and every designs
    request by a traced cold evaluation.

    Returns the program's result and how many moves actually resumed.
    """
    delta = DeltaEvaluator(compiled, scheduler)
    used = 0

    def serve(request):
        nonlocal used
        if request.moves is None:
            return [
                evaluate_candidate(
                    compiled.spec, compiled, scheduler, design, record_trace=True
                )
                for design in request.designs
            ]
        results = []
        for move in request.moves:
            outcome, via_delta = delta.evaluate_move(request.parent, move)
            used += via_delta
            results.append(outcome)
        return results

    try:
        request = next(program)
        while True:
            request = program.send(serve(request))
    except StopIteration as stop:
        return stop.value, used


@pytest.fixture(scope="module")
def kernel(spec):
    compiled = CompiledSpec(spec, engine_core="object")
    scheduler = ListScheduler(spec.architecture)
    return compiled, scheduler, DeltaEvaluator(compiled, scheduler)


class TestFootprints:
    def test_remap_includes_colocated_senders_only(self, spec, kernel):
        compiled, scheduler, _ = kernel
        parent = im_parent(spec, compiled, scheduler)
        mapping = parent.design.mapping
        for process in spec.current.processes:
            current_node = mapping.node_of(process.id)
            for node_id in process.allowed_nodes:
                if node_id == current_node:
                    continue
                fp = RemapProcess(process.id, node_id).footprint(parent.design)
                assert process.id in fp.processes
                assert fp.nodes == {current_node, node_id}
                graph = spec.current.graph_of(process.id)
                for msg in graph.in_messages(process.id):
                    src_node = mapping.node_of(msg.src)
                    expected = src_node in (current_node, node_id)
                    assert (msg.src in fp.processes) == expected

    def test_swap_footprint_is_priority_only(self, spec, kernel):
        compiled, scheduler, _ = kernel
        parent = im_parent(spec, compiled, scheduler)
        pids = [p.id for p in spec.current.processes]
        fp = SwapPriorities(pids[0], pids[1]).footprint(parent.design)
        assert fp.reprioritized == {pids[0], pids[1]}
        assert not fp.processes

    def test_delay_footprint_is_the_sender(self, spec, kernel):
        compiled, scheduler, _ = kernel
        parent = im_parent(spec, compiled, scheduler)
        msg = spec.current.messages[0]
        fp = DelayMessage(msg.id, +1).footprint(parent.design)
        assert fp.processes == {msg.src}
        assert fp.messages == {msg.id}


class TestDeltaEqualsCold:
    def test_systematic_neighbourhood(self, spec, kernel):
        compiled, scheduler, delta = kernel
        parent = im_parent(spec, compiled, scheduler)
        used = 0
        for move in systematic_moves(spec, parent):
            child = move.apply(parent.design)
            cold = evaluate_candidate(
                spec, compiled, scheduler, child, record_trace=True
            )
            out, via_delta = delta.evaluate_move(parent, move, child)
            used += via_delta
            assert (cold is None) == (out is None), move.describe()
            if cold is None:
                continue
            assert occupancy(cold.schedule) == occupancy(out.schedule)
            assert cold.metrics == out.metrics
            assert trace_identity(cold.trace) == trace_identity(out.trace)
        assert used > 0  # the incremental path actually ran

    def test_chained_generations(self, spec, kernel):
        """Delta children serve as parents: a whole walk stays exact."""
        compiled, scheduler, delta = kernel
        current = im_parent(spec, compiled, scheduler)
        import random

        rng = random.Random(11)
        pids = [p.id for p in spec.current.processes]
        messages = [m.id for m in spec.current.messages]
        for _ in range(60):
            roll = rng.random()
            if roll < 0.5:
                pid = rng.choice(pids)
                options = [
                    n
                    for n in spec.current.process(pid).allowed_nodes
                    if n != current.design.mapping.node_of(pid)
                ]
                if not options:
                    continue
                move = RemapProcess(pid, rng.choice(options))
            elif roll < 0.85 or not messages:
                move = SwapPriorities(*rng.sample(pids, 2))
            else:
                move = DelayMessage(rng.choice(messages), rng.choice([1, -1]))
            child = move.apply(current.design)
            cold = evaluate_candidate(
                spec, compiled, scheduler, child, record_trace=True
            )
            out, _ = delta.evaluate_move(current, move, child)
            assert (cold is None) == (out is None)
            if cold is not None:
                assert occupancy(cold.schedule) == occupancy(out.schedule)
                assert cold.metrics == out.metrics
                assert trace_identity(cold.trace) == trace_identity(out.trace)
                current = out

    def test_failure_reasons_match(self):
        """Invalid children report the cold run's exact failure."""
        from repro.gen.scenario import ScenarioParams, build_scenario

        # A tight current application: the IM start is valid, but a
        # good share of the remap neighbourhood misses deadlines.
        scenario = build_scenario(
            ScenarioParams(
                n_existing=14, n_current=10, current_utilization=0.3
            ),
            seed=4,
        )
        spec = scenario.spec()
        compiled = CompiledSpec(spec, engine_core="object")
        scheduler = ListScheduler(spec.architecture)
        delta = DeltaEvaluator(compiled, scheduler)
        parent = im_parent(spec, compiled, scheduler)
        checked = 0
        for move in systematic_moves(spec, parent, limit_delays=20):
            child = move.apply(parent.design)
            cold = scheduler.try_schedule(
                spec.current,
                child.mapping,
                priorities=child.priorities,
                message_delays=child.message_delays,
                compiled=compiled,
            )
            if cold.success:
                continue
            attempt = delta.try_resume(parent, move, child)
            if attempt is None:
                continue  # fell back; cold path is the delta path
            result, _, _ = attempt
            assert not result.success
            assert result.failure_reason == cold.failure_reason
            assert result.scheduled_jobs == cold.scheduled_jobs
            assert result.total_jobs == cold.total_jobs
            checked += 1
        assert checked > 0, "scenario produced no invalid children to compare"


class TestSteepestDescentDelta:
    def test_descent_identical_with_delta_and_cache_off(self, spec):
        def identity(best):
            return (
                tuple(sorted(best.design.mapping.as_dict().items())),
                tuple(sorted(best.design.priorities.items())),
                tuple(sorted(best.design.message_delays.items())),
                best.objective,
            )

        def run(config=EngineConfig()):
            with EvaluationEngine(spec, config) as engine:
                parent = im_parent(
                    spec, engine.compiled, ListScheduler(spec.architecture)
                )
                outcome = descent_loop(DescentParams(max_iterations=6)).run(
                    spec, engine, start=parent
                )
                return identity(outcome.incumbent)

        reference = run()
        assert run(EngineConfig(use_cache=False)) == reference
        compiled = CompiledSpec(spec, engine_core="array")
        scheduler = ListScheduler(spec.architecture)
        program = descent_loop(DescentParams(max_iterations=6)).program(
            spec, start=im_parent(spec, compiled, scheduler)
        )
        outcome, used = drive_through_delta(program, compiled, scheduler)
        assert used > 0
        assert identity(outcome.incumbent) == reference


# ----------------------------------------------------------------------
# property tests across every registered scenario family
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=32)
def _family_fixture(family_name: str, seed: int):
    """Built scenario + compiled kernel for one (family, seed) cell."""
    family = families.get_family(family_name)
    scenario = family.build(family.smallest_preset, seed=seed)
    spec = scenario.spec()
    compiled = CompiledSpec(spec, engine_core="object")
    scheduler = ListScheduler(spec.architecture)
    delta = DeltaEvaluator(compiled, scheduler)
    parent = im_parent(spec, compiled, scheduler)
    return spec, compiled, scheduler, delta, parent


@pytest.mark.parametrize("family_name", families.family_names())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_delta_equals_cold_property(family_name, data):
    """Random move sequences on every family: delta == cold, chained."""
    seed = data.draw(st.sampled_from([1, 2]), label="scenario seed")
    spec, compiled, scheduler, delta, parent = _family_fixture(
        family_name, seed
    )
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
            spec, compiled, scheduler, child, record_trace=True
        )
        out, _ = delta.evaluate_move(current, move, child)
        assert (cold is None) == (out is None), move.describe()
        if cold is None:
            continue
        assert occupancy(cold.schedule) == occupancy(out.schedule)
        assert cold.metrics == out.metrics
        assert trace_identity(cold.trace) == trace_identity(out.trace)
        current = out


# ----------------------------------------------------------------------
# seeded strategy runs: the kernel lands on the cold path's designs
# ----------------------------------------------------------------------
def _through_delta(strategy, spec):
    compiled = CompiledSpec(spec, engine_core="array")
    return drive_through_delta(
        strategy.search_program(spec, compiled),
        compiled,
        ListScheduler(spec.architecture),
    )


class TestSeededStrategyEquivalence:
    @pytest.mark.parametrize("family_name", ["uniform-baseline", "pipeline"])
    def test_mh_identical_delta_on_off(self, family_name):
        family = families.get_family(family_name)
        spec = family.build(family.smallest_preset, seed=1).spec()
        reference = MappingHeuristic().design(spec).design_identity()
        result, used = _through_delta(MappingHeuristic(), spec)
        assert used > 0
        assert result.design_identity() == reference

    def test_sa_identical_delta_on_off(self, spec):
        reference = (
            SimulatedAnnealing(iterations=120, seed=3)
            .design(spec)
            .design_identity()
        )
        uncached = SimulatedAnnealing(
            iterations=120, seed=3, engine=EngineConfig(use_cache=False)
        )
        assert uncached.design(spec).design_identity() == reference
        result, used = _through_delta(
            SimulatedAnnealing(iterations=120, seed=3), spec
        )
        assert used > 0
        assert result.design_identity() == reference
