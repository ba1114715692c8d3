"""Acceptance-policy semantics (greedy, Metropolis, any)."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.search.acceptors import (
    AcceptAny,
    GreedyAcceptor,
    MetropolisAcceptor,
)


@dataclass
class FakeDesign:
    """Acceptors only read ``objective``; a float shell suffices."""

    objective: float


def designs(*objectives):
    return [None if o is None else FakeDesign(o) for o in objectives]


CURRENT = FakeDesign(10.0)


class TestGreedy:
    def test_picks_steepest_improvement(self):
        acceptor = GreedyAcceptor()
        results = designs(9.5, 8.0, 9.0)
        assert acceptor.decide(CURRENT, [], results, None).objective == 8.0

    def test_rejects_non_improving(self):
        acceptor = GreedyAcceptor()
        assert acceptor.decide(CURRENT, [], designs(10.0, 11.0), None) is None

    def test_min_improvement_is_strict(self):
        acceptor = GreedyAcceptor(min_improvement=1.0)
        assert acceptor.decide(CURRENT, [], designs(9.5), None) is None
        assert acceptor.decide(CURRENT, [], designs(8.9), None) is not None

    def test_ignores_invalid_results(self):
        acceptor = GreedyAcceptor()
        results = designs(None, 9.0, None)
        assert acceptor.decide(CURRENT, [], results, None).objective == 9.0

    def test_tie_keeps_first_in_move_order(self):
        # An equal objective is no improvement over the winner so far,
        # so cached and uncached runs pick the identical move.
        results = designs(8.0, 8.0)
        assert GreedyAcceptor().decide(CURRENT, [], results, None) is results[0]

    def test_terminal_on_reject(self):
        assert GreedyAcceptor.terminal_on_reject is True
        assert MetropolisAcceptor.terminal_on_reject is False


class TestMetropolis:
    def test_downhill_accepted_without_rng_draw(self):
        acceptor = MetropolisAcceptor(temperature=1.0)

        class ExplodingRng:
            def random(self):  # pragma: no cover - must not be called
                raise AssertionError("downhill moves must not draw")

        accepted = acceptor.decide(CURRENT, [], designs(9.0), ExplodingRng())
        assert accepted.objective == 9.0

    def test_uphill_draws_once(self):
        acceptor = MetropolisAcceptor(temperature=1e9)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state["state"]["state"]
        accepted = acceptor.decide(CURRENT, [], designs(10.5), rng)
        after = rng.bit_generator.state["state"]["state"]
        assert before != after
        # At an enormous temperature every uphill move is accepted.
        assert accepted is not None

    def test_cools_every_step_even_on_invalid(self):
        acceptor = MetropolisAcceptor(temperature=2.0, cooling=0.5)
        rng = np.random.default_rng(1)
        acceptor.decide(CURRENT, [], designs(None), rng)
        assert acceptor.temperature == 1.0
        acceptor.decide(CURRENT, [], designs(9.0), rng)
        assert acceptor.temperature == 0.5

    def test_temperature_floor(self):
        acceptor = MetropolisAcceptor(
            temperature=1.0, cooling=0.1, min_temperature=0.25
        )
        rng = np.random.default_rng(2)
        for _ in range(5):
            acceptor.decide(CURRENT, [], designs(9.0), rng)
        assert acceptor.temperature == 0.25

    def test_takes_first_acceptable_not_best(self):
        acceptor = MetropolisAcceptor(temperature=1.0)
        rng = np.random.default_rng(3)
        accepted = acceptor.decide(CURRENT, [], designs(9.0, 5.0), rng)
        assert accepted.objective == 9.0

    def test_rejected_uphill_falls_through_to_later_downhill(self):
        acceptor = MetropolisAcceptor(temperature=1e-9)
        rng = np.random.default_rng(4)
        reference = np.random.default_rng(4)
        reference.random()
        accepted = acceptor.decide(CURRENT, [], designs(12.0, 9.0), rng)
        assert accepted.objective == 9.0
        # Exactly one draw: the uphill test; the downhill one draws none.
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_zero_temperature_rejects_uphill_without_draw(self):
        class ExplodingRng:
            def random(self):  # pragma: no cover - must not be called
                raise AssertionError("a frozen walk must not draw")

        metropolis = MetropolisAcceptor.metropolis
        assert metropolis(0.5, 0.0, ExplodingRng()) is False
        assert metropolis(0.0, 0.0, ExplodingRng()) is True

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            MetropolisAcceptor(temperature=1.0).decide(
                CURRENT, [], designs(11.0), None
            )


class TestAcceptAny:
    def test_first_valid_wins(self):
        accepted = AcceptAny().decide(
            CURRENT, [], designs(None, 12.0, 5.0), None
        )
        assert accepted.objective == 12.0

    def test_all_invalid_rejects(self):
        assert AcceptAny().decide(CURRENT, [], designs(None, None), None) is None
