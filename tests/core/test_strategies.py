"""Behavioural tests for AH, MH and SA on small generated scenarios."""

import pytest

from repro.core.adhoc import AdHocStrategy
from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.metrics import ObjectiveWeights, evaluate_design
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.gen.scenario import ScenarioParams, build_scenario
from repro.sched.list_scheduler import ListScheduler


@pytest.fixture(scope="module")
def scenario():
    """One shared small scenario (module scope keeps the suite fast)."""
    params = ScenarioParams(n_nodes=3, hyperperiod=2400,
                            n_existing=18, n_current=10)
    return build_scenario(params, seed=3)


def six_node_scenario(n_current: int):
    """Six nodes and 40 existing processes around ``n_current`` new ones."""
    params = ScenarioParams(n_nodes=6, hyperperiod=4800,
                            n_existing=40, n_current=n_current)
    return build_scenario(params, seed=1)


@pytest.fixture(scope="module")
def ah_result(scenario):
    return AdHocStrategy().design(scenario.spec())


@pytest.fixture(scope="module")
def mh_result(scenario):
    return MappingHeuristic(max_iterations=12).design(scenario.spec())


@pytest.fixture(scope="module")
def sa_result(scenario):
    return SimulatedAnnealing(iterations=150, seed=11).design(scenario.spec())


class TestAdHoc:
    def test_valid(self, ah_result):
        assert ah_result.valid
        assert ah_result.mapping.is_complete()
        ah_result.schedule.validate()

    def test_single_evaluation(self, ah_result):
        assert ah_result.evaluations == 1

    def test_metrics_reported(self, ah_result):
        assert ah_result.metrics is not None
        assert ah_result.objective >= 0


class TestMappingHeuristic:
    def test_valid(self, mh_result):
        assert mh_result.valid
        mh_result.schedule.validate()

    def test_not_worse_than_ah(self, ah_result, mh_result):
        assert mh_result.objective <= ah_result.objective

    def test_performs_multiple_evaluations(self, mh_result):
        assert mh_result.evaluations > 1

    def test_deterministic(self, scenario, mh_result):
        again = MappingHeuristic(max_iterations=12).design(scenario.spec())
        assert again.objective == mh_result.objective
        assert again.mapping.as_dict() == mh_result.mapping.as_dict()

    def test_respects_requirement_a(self, scenario, mh_result):
        """Every frozen (existing) entry is untouched in the MH design."""
        base = scenario.base_schedule
        designed = mh_result.schedule
        for entry in base.all_entries():
            kept = designed.entry_of(entry.process_id, entry.instance)
            assert kept is not None
            assert (kept.node_id, kept.start, kept.end) == (
                entry.node_id,
                entry.start,
                entry.end,
            )
            assert kept.frozen

    def test_deadlines_met(self, scenario, mh_result):
        """Requirement (a): the current application is schedulable."""
        designed = mh_result.schedule
        for graph in scenario.current.graphs:
            for k in range(designed.horizon // graph.period):
                deadline = k * graph.period + graph.deadline
                for proc in graph.processes:
                    entry = designed.entry_of(proc.id, k)
                    assert entry is not None
                    assert entry.end <= deadline

    def test_zero_iterations_equals_initial(self, scenario, ah_result):
        result = MappingHeuristic(max_iterations=0).design(scenario.spec())
        assert result.objective == pytest.approx(ah_result.objective)

    def test_message_moves_can_be_disabled(self, scenario):
        result = MappingHeuristic(
            max_iterations=4, use_message_moves=False
        ).design(scenario.spec())
        assert result.valid

    def test_larger_pool_never_worse(self):
        """Examining the 64 highest-potential processes per step ends no
        worse than examining only the best one."""
        spec = six_node_scenario(8).spec()
        small = MappingHeuristic(pool_size=1).design(spec)
        large = MappingHeuristic(pool_size=64).design(spec)
        assert large.objective <= small.objective + 1e-9

    def test_second_criterion_weights_drive_c2(self):
        """Optimising only the second criterion (slide 13) leaves a
        C2P penalty no larger than optimising only the first does."""
        scenario = six_node_scenario(16)
        only_first = MappingHeuristic().design(
            scenario.spec(ObjectiveWeights(w2p=0.0, w2m=0.0))
        )
        only_second = MappingHeuristic().design(
            scenario.spec(ObjectiveWeights(w1p=0.0, w1m=0.0))
        )
        assert only_first.valid and only_second.valid
        # Both priced under the balanced weights, so they compare.
        first = evaluate_design(only_first.schedule, scenario.future)
        second = evaluate_design(only_second.schedule, scenario.future)
        assert second.penalty_2p <= first.penalty_2p + 1e-9


class TestSimulatedAnnealing:
    def test_valid(self, sa_result):
        assert sa_result.valid
        sa_result.schedule.validate()

    def test_not_worse_than_ah(self, ah_result, sa_result):
        assert sa_result.objective <= ah_result.objective

    def test_deterministic_for_seed(self, scenario, sa_result):
        again = SimulatedAnnealing(iterations=150, seed=11).design(
            scenario.spec()
        )
        assert again.objective == sa_result.objective

    def test_different_seeds_explore_differently(self, scenario):
        a = SimulatedAnnealing(iterations=60, seed=1, polish=False).design(
            scenario.spec()
        )
        b = SimulatedAnnealing(iterations=60, seed=2, polish=False).design(
            scenario.spec()
        )
        # Both valid; mappings typically differ (not guaranteed equal
        # objectives -- just check both are sane).
        assert a.valid and b.valid

    def test_polish_never_hurts(self, scenario):
        raw = SimulatedAnnealing(iterations=60, seed=5, polish=False).design(
            scenario.spec()
        )
        polished = SimulatedAnnealing(iterations=60, seed=5, polish=True).design(
            scenario.spec()
        )
        assert polished.objective <= raw.objective

    def test_respects_requirement_a(self, scenario, sa_result):
        base = scenario.base_schedule
        designed = sa_result.schedule
        for entry in base.all_entries():
            kept = designed.entry_of(entry.process_id, entry.instance)
            assert kept is not None and kept.frozen


class TestRescheduleConsistency:
    def test_mh_design_reproducible_from_mapping(self, scenario, mh_result):
        """Rescheduling the reported (mapping, priorities, delays) with
        the list scheduler reproduces the reported schedule exactly."""
        scheduler = ListScheduler(scenario.architecture)
        result = scheduler.try_schedule(
            scenario.current,
            mh_result.mapping,
            base=scenario.base_schedule,
            priorities=mh_result.priorities,
            message_delays=mh_result.message_delays,
        )
        assert result.success
        for entry in mh_result.schedule.all_entries():
            again = result.schedule.entry_of(entry.process_id, entry.instance)
            assert again is not None
            assert (again.node_id, again.start, again.end) == (
                entry.node_id,
                entry.start,
                entry.end,
            )
