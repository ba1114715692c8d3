"""Tests for the HCP priority function."""

import pytest

from repro.model.application import Application
from repro.model.process_graph import Message, Process, ProcessGraph
from repro.sched.priorities import graph_hcp_priorities, hcp_priorities
from repro.tdma.bus import Slot, TdmaBus


@pytest.fixture
def bus() -> TdmaBus:
    return TdmaBus([Slot("N1", 4, 8), Slot("N2", 4, 8)])  # round = 8


def chain(n=3, wcet=10, msg=4) -> ProcessGraph:
    g = ProcessGraph("g", 1000)
    for i in range(n):
        g.add_process(Process(f"P{i}", {"N1": wcet, "N2": wcet}))
    for i in range(n - 1):
        g.add_message(Message(f"m{i}", f"P{i}", f"P{i+1}", msg))
    return g


class TestGraphHcp:
    def test_sink_priority_is_own_wcet(self, bus):
        g = chain(3)
        prio = graph_hcp_priorities(g, bus)
        assert prio["P2"] == 10.0

    def test_priorities_decrease_along_chain(self, bus):
        prio = graph_hcp_priorities(chain(4), bus)
        assert prio["P0"] > prio["P1"] > prio["P2"] > prio["P3"]

    def test_chain_includes_communication(self, bus):
        # One message of 4 bytes <= avg capacity 8 -> 1 round = 8 tu.
        prio = graph_hcp_priorities(chain(2), bus)
        assert prio["P0"] == 10.0 + 8.0 + 10.0

    def test_large_message_needs_more_rounds(self, bus):
        g = ProcessGraph("g", 1000)
        g.add_process(Process("A", {"N1": 10}))
        g.add_process(Process("B", {"N1": 10}))
        g.add_message(Message("m", "A", "B", 20))  # ceil(20/8)=3 rounds
        prio = graph_hcp_priorities(g, bus)
        assert prio["A"] == 10.0 + 3 * 8.0 + 10.0

    def test_heterogeneous_average(self, bus):
        g = ProcessGraph("g", 1000)
        g.add_process(Process("A", {"N1": 10, "N2": 30}))
        prio = graph_hcp_priorities(g, bus)
        assert prio["A"] == 20.0

    def test_fork_takes_max_branch(self, bus):
        g = ProcessGraph("g", 1000)
        g.add_process(Process("A", {"N1": 10}))
        g.add_process(Process("short", {"N1": 5}))
        g.add_process(Process("long", {"N1": 50}))
        g.add_message(Message("m1", "A", "short", 4))
        g.add_message(Message("m2", "A", "long", 4))
        prio = graph_hcp_priorities(g, bus)
        assert prio["A"] == 10.0 + 8.0 + 50.0


class TestApplicationLevel:
    def test_hcp_covers_all_processes(self, bus):
        app = Application("a", [chain(3)])
        prio = hcp_priorities(app, bus)
        assert set(prio) == {"P0", "P1", "P2"}
