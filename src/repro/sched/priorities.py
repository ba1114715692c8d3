"""Process priority functions for list scheduling.

The paper's Initial Mapping starts from the Heterogeneous Critical Path
(HCP) algorithm of Jorgensen & Madsen (CODES'97): list scheduling where
each ready process's priority is the length of its longest path to a
sink, with execution times averaged over the heterogeneous candidate
nodes and communication charged at the message's bus transmission
estimate.  Higher priority = more critical = scheduled first.

Priorities are plain ``{process_id: float}`` maps, so the search
strategies (SA, MH) can perturb them to steer a process into a
different slack -- the paper's "move a process to a different slack on
the same processor" transformation.
"""

from __future__ import annotations

from typing import Dict

from repro.model.application import Application
from repro.model.process_graph import ProcessGraph
from repro.tdma.bus import TdmaBus

PriorityMap = Dict[str, float]


def _bus_time_estimate(size: int, bus: TdmaBus) -> float:
    """Average time for ``size`` bytes to traverse the TDMA bus.

    A message waits on average half a round for its sender's slot and
    is delivered at the slot end; large messages need several rounds.
    The estimate charges ``ceil(size / avg_capacity)`` rounds of delay,
    which is what HCP needs: a node-independent communication weight.
    """
    avg_capacity = sum(s.capacity for s in bus.slots) / len(bus.slots)
    rounds_needed = max(1, -(-size // int(avg_capacity)))
    return rounds_needed * bus.round_length

    # NOTE: deliberately coarse -- priorities only order the ready list;
    # exact message timing is resolved by the list scheduler itself.


def graph_hcp_priorities(graph: ProcessGraph, bus: TdmaBus) -> PriorityMap:
    """HCP priority (bottom level) for every process of one graph.

    ``priority(p) = avg_wcet(p) + max over successors s of
    (bus_estimate(msg(p, s)) + priority(s))``, i.e. the longest
    remaining path to a sink counting average execution times and
    estimated communication delays.
    """
    priorities: PriorityMap = {}
    for pid in reversed(graph.topological_order()):
        proc = graph.process(pid)
        best_tail = 0.0
        for msg in graph.out_messages(pid):
            tail = _bus_time_estimate(msg.size, bus) + priorities[msg.dst]
            best_tail = max(best_tail, tail)
        priorities[pid] = proc.average_wcet + best_tail
    return priorities


def hcp_priorities(application: Application, bus: TdmaBus) -> PriorityMap:
    """HCP priorities for every process of ``application``.

    Graphs are independent, so priorities are computed per graph; the
    list scheduler additionally orders by release time and deadline, so
    cross-graph comparability of the raw values is not required.
    """
    priorities: PriorityMap = {}
    for graph in application.graphs:
        priorities.update(graph_hcp_priorities(graph, bus))
    return priorities
