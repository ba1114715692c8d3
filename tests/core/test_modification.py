"""Tests for the modification-aware design extension."""

import pytest

from repro.core.future import DiscreteDistribution, FutureCharacterization
from repro.core.modification import (
    ExistingApplication,
    design_with_modifications,
)
from repro.model.application import Application
from repro.model.process_graph import Process, ProcessGraph
from repro.utils.errors import InvalidModelError

from tests.conftest import make_chain_graph


def heavy_app(name: str, wcet: int, nodes=("N1", "N2"), period: int = 80) -> Application:
    """One big process per node-count, eating most of the horizon."""
    g = ProcessGraph("g0", period)
    g.add_process(Process(f"{name}.hog", {n: wcet for n in nodes}))
    return Application(name, [g])


def light_future() -> FutureCharacterization:
    return FutureCharacterization(
        t_min=40,
        t_need=4,
        b_need=2,
        wcet_distribution=DiscreteDistribution((4,), (1.0,)),
        message_size_distribution=DiscreteDistribution((2,), (1.0,)),
    )


@pytest.fixture
def current(arch2) -> Application:
    return Application("current", [make_chain_graph(prefix="cur.")])


@pytest.fixture
def urgent_current(arch2) -> Application:
    """A chain that must finish by 30 -- before any frozen hog ends."""
    return Application(
        "current", [make_chain_graph(prefix="cur.", deadline=30)]
    )


class TestExistingApplication:
    def test_negative_cost_rejected(self, arch2):
        with pytest.raises(InvalidModelError):
            ExistingApplication(heavy_app("e", 10), -1.0)

    def test_name_passthrough(self):
        item = ExistingApplication(heavy_app("legacy", 10), 5.0)
        assert item.name == "legacy"


class TestNoModificationNeeded:
    def test_k0_when_room_exists(self, arch2, current):
        existing = [ExistingApplication(heavy_app("e1", 10), 100.0)]
        out = design_with_modifications(
            arch2, existing, current, light_future()
        )
        assert out.valid
        assert out.modified == []
        assert out.total_cost == 0.0
        assert out.attempts == 1

    def test_no_existing_apps_at_all(self, arch2, current):
        out = design_with_modifications(arch2, [], current, light_future())
        assert out.valid
        assert out.modified == []


class TestModificationTriggered:
    def test_unfreezes_cheapest_first(self, arch2, urgent_current):
        """Two frozen hogs cover [0, 40) on both nodes; the urgent chain
        (deadline 30) only fits after the cheaper hog is remapped."""
        e_cheap = ExistingApplication(heavy_app("cheap", 40), 1.0)
        e_dear = ExistingApplication(heavy_app("dear", 40), 50.0)
        out = design_with_modifications(
            arch2, [e_cheap, e_dear], urgent_current, light_future()
        )
        assert out.valid
        assert out.modified == ["cheap"]
        assert out.total_cost == 1.0
        assert out.attempts == 2  # k=0 failed, k=1 succeeded

    def test_impossible_returns_invalid(self, arch2, current):
        """Demand beyond platform capacity fails even at full redesign."""
        hogs = [
            ExistingApplication(heavy_app(f"hog{i}", 75), 1.0)
            for i in range(3)
        ]
        out = design_with_modifications(
            arch2, hogs, current, light_future()
        )
        assert not out.valid
        assert out.design is None
        assert out.attempts >= 1

    def test_max_modified_bound(self, arch2, current):
        hogs = [
            ExistingApplication(heavy_app(f"hog{i}", 75), 1.0)
            for i in range(2)
        ]
        out = design_with_modifications(
            arch2, hogs, current, light_future(), max_modified=0
        )
        assert not out.valid
        # Only the k=0 subset may be attempted.
        assert out.attempts == 1


class TestModifiedDesignQuality:
    def test_movable_set_fully_scheduled(self, arch2, urgent_current):
        e1 = ExistingApplication(heavy_app("e1", 40), 1.0)
        e2 = ExistingApplication(heavy_app("e2", 40), 2.0)
        out = design_with_modifications(
            arch2, [e1, e2], urgent_current, light_future()
        )
        assert out.valid
        schedule = out.design.schedule
        # Current chain and every modified hog appear in the schedule.
        for pid in ("cur.P0", "cur.P1", "cur.P2"):
            assert schedule.entry_of(pid, 0) is not None
        assert schedule.entry_of("cur.P2", 0).end <= 30  # deadline held
        for name in out.modified:
            assert schedule.entry_of(f"{name}.hog", 0) is not None

    def test_unmodified_stay_frozen(self, arch2, urgent_current):
        e1 = ExistingApplication(heavy_app("e1", 40), 1.0)
        e2 = ExistingApplication(heavy_app("e2", 40), 2.0)
        out = design_with_modifications(
            arch2, [e1, e2], urgent_current, light_future()
        )
        assert out.valid
        assert out.modified  # modification was required
        schedule = out.design.schedule
        frozen_names = {e.name for e in (e1, e2)} - set(out.modified)
        for name in frozen_names:
            entry = schedule.entry_of(f"{name}.hog", 0)
            assert entry is not None
            assert entry.frozen

    def test_strategy_kwargs_forwarded(self, arch2, current):
        existing = [ExistingApplication(heavy_app("e1", 10), 1.0)]
        out = design_with_modifications(
            arch2,
            existing,
            current,
            light_future(),
            strategy="SA",
            iterations=20,
            seed=0,
        )
        assert out.valid
