"""Slack extraction and fragmentation statistics.

The design criteria consume a schedule through its *slack*: the free
gaps on each processor and the residual bytes of each TDMA slot
occurrence.  This module turns a :class:`repro.sched.SystemSchedule`
into the container lists the bin-packing metric needs, and computes the
per-node fragmentation statistics :mod:`repro.analysis` reports (the
Mapping Heuristic scores the same expression from its kernel pass; see
:class:`repro.search.proposers.Neighbourhood`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sched.schedule import SystemSchedule


def processor_slack_containers(
    schedule: SystemSchedule, min_size: int = 1
) -> List[int]:
    """Lengths of all free gaps across all processors.

    Parameters
    ----------
    schedule:
        The schedule whose slack is extracted.
    min_size:
        Gaps shorter than this are dropped (they cannot host any future
        process; the metric's bin packing would ignore them anyway, so
        dropping them is purely an optimization).
    """
    containers: List[int] = []
    for node_id in schedule.architecture.node_ids:
        for gap in schedule.slack_gaps(node_id):
            if gap.length >= min_size:
                containers.append(gap.length)
    return containers


def bus_slack_containers(schedule: SystemSchedule, min_size: int = 1) -> List[int]:
    """Residual byte capacities of all TDMA slot occurrences."""
    return [
        free
        for _, free in schedule.bus.residuals()
        if free >= min_size
    ]


@dataclass(frozen=True)
class FragmentationStats:
    """Per-node slack shape statistics.

    Attributes
    ----------
    total_slack:
        Free time units on the node over the horizon.
    gap_count:
        Number of distinct free gaps.
    largest_gap:
        Length of the largest gap (0 when fully busy).
    fragmentation:
        ``1 - largest_gap / total_slack`` in [0, 1]; 0 means all slack
        is one contiguous chunk (the paper's ideal, slide 12), values
        near 1 mean the slack is shattered into many small gaps.
    """

    total_slack: int
    gap_count: int
    largest_gap: int

    @property
    def fragmentation(self) -> float:
        if self.total_slack == 0:
            return 0.0
        return 1.0 - self.largest_gap / self.total_slack


def slack_fragmentation(schedule: SystemSchedule) -> Dict[str, FragmentationStats]:
    """Fragmentation statistics for every node of the schedule."""
    out: Dict[str, FragmentationStats] = {}
    for node_id in schedule.architecture.node_ids:
        gaps = schedule.slack_gaps(node_id)
        total = sum(g.length for g in gaps)
        largest = max((g.length for g in gaps), default=0)
        out[node_id] = FragmentationStats(total, len(gaps), largest)
    return out

