"""The paper's design metrics and objective function (slides 12-14).

**First criterion -- slack sizes.**  How much of the hypothetical
largest future application cannot be mapped on the current design?
Future processes (WCET bag) are best-fit packed into processor slack
gaps, future messages (size bag) into TDMA slot residuals:

* ``C1P`` = percentage of future process demand left unpacked,
* ``C1m`` = percentage of future message demand left unpacked.

Both are 0 when the whole bag fits (slide 12's C1=0% cases) and grow
toward 100 as slack becomes scarce or fragmented.

**Second criterion -- slack distribution.**  The future application
returns every ``T_min``; the design must keep ``t_need`` processor time
and ``b_need`` bus bandwidth available in *every* ``T_min`` window:

* ``C2P`` = sum over processors of the minimum per-window slack,
* ``C2m`` = minimum per-window residual bus capacity.

**Objective function (slide 14, verbatim structure).**

``C = w1P*C1P + w1m*C1m + w2P*max(0, t_need - C2P) + w2m*max(0, b_need - C2m)``

With ``ObjectiveWeights.normalize_second`` (the default) the two
second-criterion penalty terms are expressed as percentages of
``t_need`` / ``b_need`` so all four terms share the 0-100 scale; the
slides do not specify the scaling, see DESIGN.md §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.binpack import best_fit, best_fit_unplaced_total
from repro.core.future import FutureCharacterization
from repro.core.slack import bus_slack_containers, processor_slack_containers
from repro.sched.schedule import SystemSchedule
from repro.utils.timemath import periodic_windows


# ----------------------------------------------------------------------
# first criterion
# ----------------------------------------------------------------------
def metric_c1p(
    schedule: SystemSchedule, future: FutureCharacterization
) -> float:
    """C1P: % of future *process* demand that best fit cannot pack into
    the slack.

    Parameters
    ----------
    schedule:
        The candidate design (current + existing applications).
    future:
        The future-application characterization.
    """
    bag = future.future_process_bag(schedule.horizon)
    if not bag:
        return 0.0
    containers = processor_slack_containers(schedule)
    return 100.0 * best_fit(bag, containers).unplaced_fraction


def metric_c1m(
    schedule: SystemSchedule, future: FutureCharacterization
) -> float:
    """C1m: % of future *message* demand that best fit cannot pack into
    the bus slot residuals."""
    bag = future.future_message_bag(schedule.horizon)
    if not bag:
        return 0.0
    containers = bus_slack_containers(schedule)
    return 100.0 * best_fit(bag, containers).unplaced_fraction


# ----------------------------------------------------------------------
# second criterion
# ----------------------------------------------------------------------
def metric_c2p(schedule: SystemSchedule, future: FutureCharacterization) -> int:
    """C2P: sum over processors of the minimum per-T_min-window slack.

    Slide 13: the guaranteed processor time a future application of
    period ``T_min`` can count on in *every* one of its periods.
    """
    windows = periodic_windows(schedule.horizon, future.t_min)
    total = 0
    for node_id in schedule.architecture.node_ids:
        total += min(schedule.slack_within(node_id, w) for w in windows)
    return total


def metric_c2m(schedule: SystemSchedule, future: FutureCharacterization) -> int:
    """C2m: minimum per-T_min-window residual bus capacity (bytes)."""
    windows = periodic_windows(schedule.horizon, future.t_min)
    return min(schedule.bus.free_bytes_within(w) for w in windows)


# ----------------------------------------------------------------------
# objective
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the slide-14 objective function.

    Attributes
    ----------
    w1p, w1m:
        Weights of the first-criterion metrics (percentages).
    w2p, w2m:
        Weights of the second-criterion penalty terms.
    normalize_second:
        When True (default) the penalties ``max(0, t_need - C2P)`` and
        ``max(0, b_need - C2m)`` are scaled to percentages of
        ``t_need`` / ``b_need`` so all terms are commensurate.
    """

    w1p: float = 1.0
    w1m: float = 1.0
    w2p: float = 1.0
    w2m: float = 1.0
    normalize_second: bool = True

    def __post_init__(self) -> None:
        for name in ("w1p", "w1m", "w2p", "w2m"):
            if getattr(self, name) < 0:
                raise ValueError(f"weight {name} must be non-negative")


@dataclass
class NodeSlackData:
    """Per-node slack inputs of the metrics, cacheable across designs.

    Attributes
    ----------
    containers:
        Gap lengths of the node's slack (the node's contribution to the
        C1P bin-packing containers, in gap order).
    window_slacks:
        Free time of the node inside each consecutive ``T_min`` window
        (the node's C2P column).
    window_min:
        ``min(window_slacks)`` -- the node's C2P contribution.
    """

    containers: List[int]
    window_slacks: List[int]
    window_min: int


@dataclass
class MetricsMemo:
    """Per-resource metric inputs and values of one evaluated design.

    Delta evaluation stores this next to the schedule: a child design
    whose timeline on a node (or the bus) is byte-identical to its
    parent's reuses the parent's slack data -- and, when *every*
    resource a metric depends on is unchanged, the metric value itself
    -- instead of re-extracting gaps, window profiles and bin
    packings.  A dirty bus is patched sparsely: the child's residual
    vector is the parent's plus the (tiny) per-occurrence occupancy
    diff.  Reuse is exact by construction: a resource only counts as
    clean when its busy time (or the bus's byte occupancy) equals the
    parent's, and each metric is a pure function of those inputs.

    ``bus_residuals`` is the *unfiltered* free-byte vector over all
    slot occurrences in window-start order (a numpy array, shared
    never mutated).
    """

    nodes: Dict[str, NodeSlackData]
    bus_residuals: "np.ndarray"
    bus_window_free: List[int]
    c1p: float
    c1m: float
    c2m: int


def _node_slack_data(
    schedule: SystemSchedule, node_id: str, windows: List
) -> NodeSlackData:
    """Extract one node's metric inputs (gaps >= 1 and window slacks).

    One pass over the node's canonical busy runs yields both the gap
    lengths (the complement inside the horizon) and the per-window
    busy time; equivalent to :meth:`SystemSchedule.slack_gaps` plus
    per-window :meth:`SystemSchedule.slack_within`, without building
    interval objects per evaluation.
    """
    horizon = schedule.horizon
    width = windows[0].length
    busy = [0] * len(windows)
    containers: List[int] = []
    cursor = 0
    for start, end in schedule.busy_pairs(node_id):
        if start > cursor:
            containers.append(start - cursor)
        cursor = end
        k = start // width
        while start < end:
            boundary = (k + 1) * width
            if boundary >= end:
                busy[k] += end - start
                break
            busy[k] += boundary - start
            start = boundary
            k += 1
    if cursor < horizon:
        containers.append(horizon - cursor)
    window_slacks = [
        window.length - used for window, used in zip(windows, busy)
    ]
    return NodeSlackData(
        containers=containers,
        window_slacks=window_slacks,
        window_min=min(window_slacks),
    )


@lru_cache(maxsize=64)
def _bus_geometry(slots, horizon: int, t_min: int):
    """Static occurrence geometry of one round layout/horizon/window setup.

    Returns ``(capacities, position index, window index, static
    per-window capacity)``: numpy capacity vector over all usable slot
    occurrences in window-start order, the ``(node, round) -> vector
    position`` map, the ``T_min`` window each occurrence lies fully
    inside (-1 when it straddles a boundary), and the total capacity
    per window.  Pure function of immutable inputs, cached across all
    evaluations of a spec.  Keyed on the slot tuple's value, like
    :func:`repro.tdma.schedule.occurrence_order`, so rebuilt scenarios
    share entries and no bus is kept alive.
    """
    from repro.tdma.bus import TdmaBus
    from repro.tdma.schedule import occurrence_order

    bus = TdmaBus(slots)
    order = occurrence_order(bus, horizon)
    capacities = np.array([cap for _, _, cap in order], dtype=np.int64)
    position = {
        (node_id, r): i for i, (node_id, r, _) in enumerate(order)
    }
    window_index = np.full(len(order), -1, dtype=np.int64)
    round_length = bus.round_length
    for i, (node_id, r, _) in enumerate(order):
        start = r * round_length + bus.slot_offset(node_id)
        length = bus.slot_of(node_id).length
        k = start // t_min
        if start + length <= min((k + 1) * t_min, horizon):
            window_index[i] = k
    n_windows = -(-horizon // t_min)
    static = np.zeros(n_windows, dtype=np.int64)
    inside = window_index >= 0
    np.add.at(static, window_index[inside], capacities[inside])
    return capacities, position, window_index, static


def _bus_slack_data(
    schedule: SystemSchedule, t_min: int
) -> Tuple["np.ndarray", List[int]]:
    """Extract the bus metric inputs (residual vector, window bytes).

    Equivalent to per-occurrence ``capacity - used`` in window-start
    order plus :meth:`BusSchedule.free_bytes_within` per window,
    computed from the cached geometry in one sparse pass over the
    used-bytes map.
    """
    capacities, position, window_index, static = _bus_geometry(
        schedule.bus.bus.slots, schedule.horizon, t_min
    )
    residuals = capacities.copy()
    window_used = [0] * len(static)
    for key, used in schedule.bus.used_map().items():
        i = position[key]
        residuals[i] -= used
        w = window_index[i]
        if w >= 0:
            window_used[w] += used
    window_free = [
        int(cap) - used for cap, used in zip(static, window_used)
    ]
    return residuals, window_free


@lru_cache(maxsize=128)
def _packing_inputs(
    future: FutureCharacterization, horizon: int
) -> Tuple[Tuple[int, ...], int, int, Tuple[int, ...], int, int]:
    """Pre-sorted future bags for the C1 bin packings, cached per spec.

    Returns ``(process bag descending, its total, its min, message bag
    descending, its total, its min)``.  The bags are deterministic
    functions of ``(future, horizon)``, which never change inside a
    search run, so every evaluation reuses one sorted copy.  The
    minimum sizes drive an exact container prefilter: a slack gap (or
    slot residual) smaller than the smallest future object can never
    host anything, never influences any best-fit decision, and is
    dropped before packing.
    """
    process_bag = tuple(
        sorted(future.future_process_bag(horizon), reverse=True)
    )
    message_bag = tuple(
        sorted(future.future_message_bag(horizon), reverse=True)
    )
    return (
        process_bag,
        sum(process_bag),
        process_bag[-1] if process_bag else 1,
        message_bag,
        sum(message_bag),
        message_bag[-1] if message_bag else 1,
    )


class DesignMetrics(NamedTuple):
    """The four metric values plus the combined objective for a design.

    One immutable record, built in a single step (a named tuple, so
    the compiled pass's priced state makes one per valid candidate
    without setting seven attributes one by one).
    """

    c1p: float
    c1m: float
    c2p: int
    c2m: int
    penalty_2p: float
    penalty_2m: float
    objective: float

    def summary(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"C1P={self.c1p:.1f}% C1m={self.c1m:.1f}% "
            f"C2P={self.c2p} C2m={self.c2m} "
            f"pen2P={self.penalty_2p:.1f} pen2m={self.penalty_2m:.1f} "
            f"C={self.objective:.2f}"
        )


def evaluate_design(
    schedule: SystemSchedule,
    future: FutureCharacterization,
    weights: Optional[ObjectiveWeights] = None,
) -> DesignMetrics:
    """Compute all four metrics and the combined objective ``C``.

    Smaller is better; 0 means the design leaves ideal room for the
    characterized future family.
    """
    metrics, _ = evaluate_design_delta(schedule, future, weights)
    return metrics


def evaluate_design_delta(
    schedule: SystemSchedule,
    future: FutureCharacterization,
    weights: Optional[ObjectiveWeights] = None,
    parent_memo: Optional[MetricsMemo] = None,
    clean_nodes: Collection[str] = (),
    bus_clean: bool = False,
    parent_bus=None,
) -> Tuple[DesignMetrics, MetricsMemo]:
    """:func:`evaluate_design` with per-resource slack-input reuse.

    The single metric core every evaluation path shares: cold
    evaluation calls it with no parent (every resource recomputed);
    delta evaluation passes the parent's :class:`MetricsMemo` plus the
    set of *clean* resources -- nodes (and the bus) whose timeline is
    byte-identical to the parent's -- whose slack extraction is then
    skipped.  A dirty bus with a known parent (``parent_bus``) is
    patched sparsely from the occupancy diff instead of re-extracted.
    The mixing steps (bin packing, window minima, the objective)
    always recompute from the per-resource inputs, so the returned
    metrics are exactly those of a cold evaluation.

    Returns the metrics together with the design's own memo (for use
    as a parent later).
    """
    if weights is None:
        weights = ObjectiveWeights()
    windows = periodic_windows(schedule.horizon, future.t_min)
    node_ids = schedule.architecture.node_ids

    all_nodes_clean = parent_memo is not None
    node_data: Dict[str, NodeSlackData] = {}
    for node_id in node_ids:
        if parent_memo is not None and node_id in clean_nodes:
            node_data[node_id] = parent_memo.nodes[node_id]
        else:
            node_data[node_id] = _node_slack_data(schedule, node_id, windows)
            all_nodes_clean = False
    bus_clean = parent_memo is not None and bus_clean
    if bus_clean:
        bus_residuals = parent_memo.bus_residuals
        bus_window_free = parent_memo.bus_window_free
    elif parent_memo is not None and parent_bus is not None:
        # Sparse patch: start from the parent's residual vector and
        # apply the per-occurrence occupancy differences.
        _, position, window_index, _ = _bus_geometry(
            schedule.bus.bus.slots, schedule.horizon, future.t_min
        )
        bus_residuals = parent_memo.bus_residuals.copy()
        bus_window_free = list(parent_memo.bus_window_free)
        for key, delta_used in schedule.bus.occupancy_diff(parent_bus):
            i = position[key]
            bus_residuals[i] -= delta_used
            w = window_index[i]
            if w >= 0:
                bus_window_free[w] -= delta_used
    else:
        bus_residuals, bus_window_free = _bus_slack_data(
            schedule, future.t_min
        )

    # First criterion: best-fit pack the future bags into the slack
    # with the lean unplaced-total kernel.  The packed value is a pure
    # function of the container lists, so it is reused verbatim when
    # every contributing resource is clean.
    (
        process_bag,
        process_total,
        process_min,
        message_bag,
        message_total,
        message_min,
    ) = _packing_inputs(future, schedule.horizon)
    if all_nodes_clean:
        c1p = parent_memo.c1p
    elif process_bag:
        containers = [
            length
            for node_id in node_ids
            for length in node_data[node_id].containers
            if length >= process_min
        ]
        unplaced_total = best_fit_unplaced_total(process_bag, containers)
        c1p = 100.0 * unplaced_total / process_total
    else:
        c1p = 0.0
    if bus_clean:
        c1m = parent_memo.c1m
        c2m = parent_memo.c2m
    else:
        if message_bag:
            eligible = bus_residuals[bus_residuals >= message_min]
            unplaced_total = best_fit_unplaced_total(message_bag, eligible)
            c1m = 100.0 * unplaced_total / message_total
        else:
            c1m = 0.0
        c2m = int(min(bus_window_free))

    # Second criterion: worst-window slack per node, summed.
    c2p = sum(node_data[n].window_min for n in node_ids)

    memo = MetricsMemo(
        node_data, bus_residuals, bus_window_free, c1p, c1m, c2m
    )

    pen2p = max(0.0, float(future.t_need - c2p))
    pen2m = max(0.0, float(future.b_need - c2m))
    if weights.normalize_second:
        if future.t_need > 0:
            pen2p = 100.0 * pen2p / future.t_need
        if future.b_need > 0:
            pen2m = 100.0 * pen2m / future.b_need

    objective = (
        weights.w1p * c1p
        + weights.w1m * c1m
        + weights.w2p * pen2p
        + weights.w2m * pen2m
    )
    return DesignMetrics(c1p, c1m, c2p, c2m, pen2p, pen2m, objective), memo
