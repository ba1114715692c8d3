"""Tests for the shared steepest-descent machinery."""

import pytest

from repro.core.improvement import DescentParams, descent_loop
from repro.core.transformations import (
    CandidateDesign,
    DelayMessage,
    RemapProcess,
    SwapPriorities,
)
from repro.engine import EvaluationEngine
from repro.gen.scenario import ScenarioParams, build_scenario
from repro.sched.priorities import hcp_priorities
from repro.core.initial_mapping import InitialMapper
from repro.search.proposers import generate_moves, select_candidates

from oracleutil import schedule_neighbours


@pytest.fixture(scope="module")
def setup():
    params = ScenarioParams(n_nodes=3, hyperperiod=2400,
                            n_existing=15, n_current=8)
    scenario = build_scenario(params, seed=2)
    spec = scenario.spec()
    mapper = InitialMapper(scenario.architecture)
    mapping, _ = mapper.try_map_and_schedule(
        scenario.current, base=scenario.base_schedule
    )
    engine = EvaluationEngine(spec)
    start = engine.evaluate(
        CandidateDesign(
            mapping, hcp_priorities(scenario.current, scenario.architecture.bus)
        )
    )
    assert start is not None
    return scenario, spec, engine, start


class TestCandidateSelection:
    def test_pool_size_respected(self, setup):
        _, spec, _, start = setup
        assert len(select_candidates(spec, start, 3)) == 3

    def test_pool_larger_than_app(self, setup):
        scenario, spec, _, start = setup
        candidates = select_candidates(spec, start, 999)
        assert len(candidates) == scenario.current.process_count

    def test_candidates_are_current_processes(self, setup):
        scenario, spec, _, start = setup
        for pid in select_candidates(spec, start, 5):
            assert pid in scenario.current

    def test_deterministic(self, setup):
        _, spec, _, start = setup
        assert select_candidates(spec, start, 5) == select_candidates(
            spec, start, 5
        )


class TestMoveGeneration:
    def test_moves_reference_current_app_only(self, setup):
        scenario, spec, _, start = setup
        moves = generate_moves(spec, start, pool_size=4)
        for move in moves:
            if isinstance(move, RemapProcess):
                assert move.process_id in scenario.current
            elif isinstance(move, SwapPriorities):
                assert move.first in scenario.current
                assert move.second in scenario.current
            elif isinstance(move, DelayMessage):
                assert scenario.current.message(move.message_id)

    def test_remaps_only_to_allowed_other_nodes(self, setup):
        scenario, spec, _, start = setup
        moves = generate_moves(spec, start, pool_size=4)
        for move in moves:
            if isinstance(move, RemapProcess):
                proc = scenario.current.process(move.process_id)
                assert move.node_id in proc.allowed_nodes
                assert move.node_id != start.mapping.node_of(move.process_id)

    def test_message_moves_can_be_disabled(self, setup):
        _, spec, _, start = setup
        moves = generate_moves(
            spec, start, pool_size=8, use_message_moves=False
        )
        assert not any(isinstance(m, DelayMessage) for m in moves)


class TestNeighbours:
    def test_neighbours_share_node(self, setup):
        scenario, spec, _, start = setup
        for pid in select_candidates(spec, start, 4):
            node = start.mapping.node_of(pid)
            for n in schedule_neighbours(spec, start.schedule, pid, node):
                assert start.mapping.node_of(n) == node


class TestDescent:
    def test_descent_monotone(self, setup):
        _, spec, engine, start = setup
        outcome = descent_loop(DescentParams(max_iterations=6)).run(
            spec, engine, start=start
        )
        assert outcome.incumbent.objective <= start.objective

    def test_descent_zero_iterations_is_start(self, setup):
        _, spec, engine, start = setup
        outcome = descent_loop(DescentParams(max_iterations=0)).run(
            spec, engine, start=start
        )
        assert outcome.incumbent is start
