"""Tests for slack extraction and fragmentation statistics."""

import pytest

from repro.core.slack import (
    FragmentationStats,
    bus_slack_containers,
    processor_slack_containers,
    slack_fragmentation,
)
from repro.sched.schedule import SystemSchedule

from oracleutil import window_slack_profile


@pytest.fixture
def sched(arch2) -> SystemSchedule:
    """N1 busy [10,30) and [50,60); N2 free; horizon 80 (10 rounds)."""
    s = SystemSchedule(arch2, 80)
    s.place_process("A", 0, "N1", 10, 20)
    s.place_process("B", 0, "N1", 50, 10)
    return s


class TestProcessorContainers:
    def test_gap_lengths(self, sched):
        containers = processor_slack_containers(sched)
        # N1: gaps 10, 20, 20; N2: one gap of 80.
        assert sorted(containers) == [10, 20, 20, 80]

    def test_min_size_filter(self, sched):
        assert sorted(processor_slack_containers(sched, min_size=15)) == [
            20,
            20,
            80,
        ]

    def test_fully_busy_node_contributes_nothing(self, arch2):
        s = SystemSchedule(arch2, 40)
        s.place_process("A", 0, "N1", 0, 40)
        s.place_process("B", 0, "N2", 0, 40)
        assert processor_slack_containers(s) == []


class TestBusContainers:
    def test_all_free(self, sched):
        containers = bus_slack_containers(sched)
        # 10 rounds x 2 slots of 8 bytes.
        assert containers == [8] * 20

    def test_reflects_usage(self, sched):
        sched.bus.place("m", 0, "N1", 0, 5)
        containers = bus_slack_containers(sched)
        assert sorted(containers)[0] == 3

    def test_min_size_filter_drops_full(self, sched):
        sched.bus.place("m", 0, "N1", 0, 8)
        assert len(bus_slack_containers(sched)) == 19


class TestFragmentation:
    def test_stats(self, sched):
        frag = slack_fragmentation(sched)
        n1 = frag["N1"]
        assert n1.total_slack == 50
        assert n1.gap_count == 3
        assert n1.largest_gap == 20
        assert n1.fragmentation == pytest.approx(1 - 20 / 50)

    def test_contiguous_slack_zero_fragmentation(self, sched):
        assert slack_fragmentation(sched)["N2"].fragmentation == 0.0

    def test_fully_busy_zero_fragmentation(self):
        assert FragmentationStats(0, 0, 0).fragmentation == 0.0


class TestWindowProfile:
    def test_profile_values(self, sched):
        profile = window_slack_profile(sched, 40)
        # N1 windows: [0,40) has 20 busy -> 20 slack; [40,80) 10 busy -> 30.
        assert profile["N1"] == [20, 30]
        assert profile["N2"] == [40, 40]

    def test_profile_window_equals_horizon(self, sched):
        profile = window_slack_profile(sched, 80)
        assert profile["N1"] == [50]
