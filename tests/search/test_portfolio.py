"""Portfolio racing: member/solo equivalence, determinism, budgets."""

from __future__ import annotations

import pytest

from searchutil import small_scenario

from repro.core.strategy import DesignResult
from repro.engine import EngineConfig
from repro.experiments.runner import (
    design_identity,
    run_portfolio,
    strategy_for_family,
)
from repro.search.budget import Budget
from repro.search.portfolio import (
    PortfolioRunner,
    _pick_winner,
    PortfolioMemberOutcome,
    first_valid,
)
from repro.utils.errors import ConfigError

SA_ITERS = 80


@pytest.fixture(scope="module")
def spec():
    return small_scenario(seed=3).spec()


@pytest.fixture(scope="module")
def race(spec):
    return run_portfolio(
        spec, ("AH", "MH", "SA"), seed=1, sa_iterations=SA_ITERS
    )


class TestRace:
    def test_all_members_report(self, race):
        assert [m.name for m in race.members] == ["AH", "MH", "SA"]
        assert all(m.result.valid for m in race.members)
        assert race.valid
        assert race.best is not None

    def test_winner_is_min_objective(self, race):
        best = min(m.result.objective for m in race.members)
        assert race.objective == best

    def test_members_equal_solo_runs(self, spec, race):
        """Racing over a shared engine must not change any member's design."""
        for name in ("AH", "MH", "SA"):
            solo = strategy_for_family(name, 1, True, 1, SA_ITERS).design(spec)
            member = next(m for m in race.members if m.name == name)
            assert design_identity(member.result) == design_identity(solo)

    def test_engine_stats_are_portfolio_level(self, race):
        assert race.evaluations > 0
        # Every engine evaluation is attributed to exactly one member
        # (AH computes its design inline and consumes none).
        assert race.evaluations == sum(
            m.evaluations_served for m in race.members
        )
        # Sharing the engine means members hit each other's entries.
        assert race.cache_hits > 0


class TestDeterminism:
    def test_repeat_is_identical(self, spec, race):
        again = run_portfolio(
            spec, ("AH", "MH", "SA"), seed=1, sa_iterations=SA_ITERS
        )
        assert again.winner_index == race.winner_index
        assert design_identity(again.best) == design_identity(race.best)
        assert again.evaluations == race.evaluations

    def test_cache_off_does_not_change_the_race(self, spec, race):
        uncached = run_portfolio(
            spec,
            ("AH", "MH", "SA"),
            seed=1,
            sa_iterations=SA_ITERS,
            engine=EngineConfig(use_cache=False),
        )
        assert design_identity(uncached.best) == design_identity(race.best)
        assert uncached.evaluations == race.evaluations
        assert uncached.cache_hits == uncached.cache_misses == 0

    def test_racing_order_does_not_change_the_winning_design(self, spec, race):
        reversed_race = run_portfolio(
            spec, ("SA", "MH", "AH"), seed=1, sa_iterations=SA_ITERS
        )
        assert design_identity(reversed_race.best) == design_identity(
            race.best
        )


class TestSharedBudget:
    def test_budget_bounds_total_evaluations(self, spec):
        result = run_portfolio(
            spec,
            ("MH", "SA"),
            seed=1,
            sa_iterations=SA_ITERS,
            shared_budget=Budget(max_evaluations=100),
        )
        assert result.evaluations <= 100
        assert result.valid
        assert result.budget_cut

    def test_cut_members_report_shared_budget_stop(self, spec):
        result = run_portfolio(
            spec,
            ("SA",),
            seed=1,
            sa_iterations=10**6,  # would run far past the budget
            shared_budget=Budget(max_evaluations=60),
        )
        member = result.members[0]
        assert member.result.search.stop_reason == "shared-budget"
        assert member.result.valid  # cut, but still a complete result

    def test_natural_finishers_free_budget_for_others(self, spec):
        """MH terminates at its local optimum; SA then uses the rest."""
        generous = run_portfolio(
            spec,
            ("MH", "SA"),
            seed=1,
            sa_iterations=10**6,
            shared_budget=Budget(max_evaluations=300),
        )
        mh, sa = generous.members
        assert mh.result.search.stop_reason == "local-optimum"
        assert sa.evaluations_served > 100  # got what MH left on the table


class TestRunnerValidation:
    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            PortfolioRunner([])

    def test_negative_shards_rejected(self, spec):
        with pytest.raises(ConfigError, match="shards must be >= 0"):
            run_portfolio(spec, ("MH",), seed=1, shards=-1)


class TestWinnerTieBreak:
    class _FakeMapping:
        def __init__(self, assignment):
            self._assignment = assignment

        def as_dict(self):
            return dict(self._assignment)

    class _FakeResult:
        def __init__(self, objective, assignment, valid=True):
            self.valid = valid
            self.mapping = TestWinnerTieBreak._FakeMapping(assignment)
            self.priorities = {"P0": 1.0}
            self.message_delays = {}
            self.objective = objective

        # The real tie-break identity, applied to the fake's fields.
        design_identity = DesignResult.design_identity

    def _member(self, index, objective, assignment, valid=True):
        return PortfolioMemberOutcome(
            name=f"m{index}",
            index=index,
            result=self._FakeResult(objective, assignment, valid),
        )

    def test_strictly_better_objective_wins(self):
        members = [
            self._member(0, 5.0, {"P0": "N1"}),
            self._member(1, 3.0, {"P0": "N2"}),
        ]
        assert _pick_winner(members) == 1

    def test_tie_broken_by_canonical_design_not_order(self):
        """The winning *design* must not depend on member order."""
        low = {"P0": "N1"}
        high = {"P0": "N2"}
        forward = [self._member(0, 5.0, high), self._member(1, 5.0, low)]
        backward = [self._member(0, 5.0, low), self._member(1, 5.0, high)]
        assert forward[_pick_winner(forward)].result.mapping.as_dict() == low
        assert backward[_pick_winner(backward)].result.mapping.as_dict() == low

    def test_identical_designs_fall_back_to_first_member(self):
        same = {"P0": "N1"}
        members = [self._member(0, 5.0, same), self._member(1, 5.0, same)]
        assert _pick_winner(members) == 0

    def test_invalid_members_never_win(self):
        members = [
            self._member(0, float("inf"), {}, valid=False),
            self._member(1, 9.0, {"P0": "N1"}),
        ]
        assert _pick_winner(members) == 1

    def test_no_valid_member_means_no_winner(self):
        members = [self._member(0, float("inf"), {}, valid=False)]
        assert _pick_winner(members) is None


class TestFirstValid:
    class _Result:
        def __init__(self, valid):
            self.valid = valid

    def test_returns_first_valid(self):
        calls = []

        def attempt(k, valid):
            def run():
                calls.append(k)
                return self._Result(valid)

            return run

        result, attempts, reason = first_valid(
            [attempt(0, False), attempt(1, True), attempt(2, True)]
        )
        assert result.valid
        assert attempts == 2
        assert reason == "valid"
        assert calls == [0, 1]  # never runs past the first success

    def test_exhaustion(self):
        result, attempts, reason = first_valid(
            [lambda: self._Result(False)] * 3
        )
        assert result is None
        assert attempts == 3
        assert reason == "exhausted"

    def test_attempt_budget_caps_scan(self):
        result, attempts, reason = first_valid(
            [lambda: self._Result(False)] * 10,
            budget=Budget(max_steps=4),
        )
        assert result is None
        assert attempts == 4
        assert reason == "budget:steps"
