"""Array-native metric kernel: the slide-14 objective on SoA columns.

The structure-of-arrays scheduler core finishes a candidate as an
:class:`~repro.sched.arrays.ArrayRunState` -- per-node sorted busy-run
columns plus one flat used-bytes vector over the TDMA slot
occurrences.  The historical metric path decoded that state back into
an object :class:`~repro.sched.schedule.SystemSchedule` solely to feed
:mod:`repro.core.metrics`, which made decode the Amdahl cap of every
candidate evaluation.  This module prices the state directly:

* **Node slack** is extracted from the ``runs_s``/``runs_e`` columns
  with the exact one-pass gap/window split of
  :func:`repro.core.metrics._node_slack_data` (the columns are kept in
  the same canonical merged form the object schedule's busy sets use).
* **Bus slack** never rebuilds a residual vector: the precompiled
  :class:`~repro.sched.arrays.ArrayMetricGeometry` carries the *base*
  occupancy's residual histogram and per-window free bytes, and a
  candidate is priced by patching those at the few occurrences where
  its flat used vector differs from the base (or from its delta
  parent) -- one vectorized compare plus a handful of dict updates.
* **Best-fit packing** runs over value histograms
  (:func:`repro.core.binpack.best_fit_unplaced_total_hist`).

A cold evaluation with the compiled module loaded never reaches this
module's pricing:
:func:`~repro.engine.evaluation.evaluate_key` schedules, prices and
mixes its packed key in one C call (``evaluate`` in
``sched/native.c``) on the objective :func:`bind_objective` set, whose
mix follows :func:`_mix` operation by operation, so both price bit for
bit alike.  The Python pricing below
serves the Python pass, recorded passes, and the tests as the oracle
of that call.

Byte-identity with the pinned object kernel is by construction: every
metric is computed from equal integer inputs with the same float
expressions, in the same order; the equivalence suite
(``tests/engine/test_array_metrics.py``) pins it across all scenario
families.  Delta evaluation chains :class:`ArrayMetricsMemo`
parent-to-child exactly the way :class:`repro.core.metrics.MetricsMemo`
does on the object side.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.binpack import best_fit_unplaced_total_hist
from repro.core.future import FutureCharacterization
from repro.core.metrics import (
    DesignMetrics,
    ObjectiveWeights,
    _packing_inputs,
)
from repro.sched.arrays import ArrayMetricGeometry, ArrayRunState, ArraySpec
from repro.sched.native import NativeRunState, ObjectiveInputs


class ArrayNodeData:
    """One node's metric inputs, extracted from its run columns.

    The array-core sibling of
    :class:`repro.core.metrics.NodeSlackData`: slack gap lengths in
    gap order (the node's C1P containers), the per-``T_min``-window
    free time, and its minimum (the node's C2P contribution).
    """

    __slots__ = ("containers", "window_slacks", "window_min")

    def __init__(
        self,
        containers: List[int],
        window_slacks: List[int],
        window_min: int,
    ) -> None:
        self.containers = containers
        self.window_slacks = window_slacks
        self.window_min = window_min


class ArrayMetricsMemo:
    """Per-resource metric inputs and values of one array-evaluated design.

    The array-core sibling of
    :class:`repro.core.metrics.MetricsMemo`, chained parent-to-child by
    the delta evaluator: a child whose run columns on a node equal the
    parent's reuses that node's :class:`ArrayNodeData`; a child whose
    flat bus vector equals the parent's reuses the bus inputs and the
    bus-derived metric values outright; a *dirty* bus is patched from
    the parent's residual histogram at the differing occurrences.

    ``bus_used`` is the evaluated state's flat used-bytes vector
    (shared, never mutated) -- the diff substrate for children;
    ``resid_hist`` maps residual value to occurrence count and
    ``window_free`` holds free bytes per ``T_min`` window.
    """

    __slots__ = (
        "nodes", "bus_used", "resid_hist", "window_free",
        "c1p", "c1m", "c2m",
    )

    def __init__(
        self,
        nodes: List[ArrayNodeData],
        bus_used: "np.ndarray",
        resid_hist: Dict[int, int],
        window_free: List[int],
        c1p: float,
        c1m: float,
        c2m: int,
    ) -> None:
        self.nodes = nodes
        self.bus_used = bus_used
        self.resid_hist = resid_hist
        self.window_free = window_free
        self.c1p = c1p
        self.c1m = c1m
        self.c2m = c2m


def _run_length(bag: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
    """Run-length encode a descending-sorted bag as (size, count) pairs."""
    runs: List[Tuple[int, int]] = []
    i = 0
    n = len(bag)
    while i < n:
        size = bag[i]
        j = i + 1
        while j < n and bag[j] == size:
            j += 1
        runs.append((size, j - i))
        i = j
    return tuple(runs)


@lru_cache(maxsize=128)
def _packing_runs(
    future: FutureCharacterization, horizon: int
) -> Tuple[
    Tuple[Tuple[int, int], ...], int, int,
    Tuple[Tuple[int, int], ...], int,
]:
    """:func:`repro.core.metrics._packing_inputs`, RLE-encoded.

    Returns ``(process runs, total, min, message runs, total)``: the
    histogram best-fit kernels (Python and compiled) consume the runs.
    Cached per ``(future, horizon)`` like the object kernel's inputs.
    """
    (
        process_bag, process_total, process_min,
        message_bag, message_total, _,
    ) = _packing_inputs(future, horizon)
    return (
        _run_length(process_bag), process_total, process_min,
        _run_length(message_bag), message_total,
    )


def _node_data(
    runs_s: List[int], runs_e: List[int], geom: ArrayMetricGeometry
) -> ArrayNodeData:
    """Extract one node's metric inputs from its canonical run columns.

    The column twin of :func:`repro.core.metrics._node_slack_data`:
    one pass over the (sorted, merged) busy runs yields the gap
    lengths and the per-window busy split.  Identical arithmetic on
    identical integers -- the run columns are the canonical busy sets
    the decoded schedule would expose.
    """
    horizon = geom.horizon
    width = geom.window_width
    busy = [0] * geom.n_windows
    containers: List[int] = []
    cursor = 0
    for start, end in zip(runs_s, runs_e):
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
        length - used for length, used in zip(geom.window_lengths, busy)
    ]
    return ArrayNodeData(containers, window_slacks, min(window_slacks))


def _patch_bus(
    resid_hist: Dict[int, int],
    window_free: List[int],
    used: "np.ndarray",
    reference_used: "np.ndarray",
    geom: ArrayMetricGeometry,
) -> None:
    """Patch reference bus inputs to ``used`` at the differing occurrences.

    ``resid_hist``/``window_free`` must describe ``reference_used``
    (the base template or a delta parent) and are mutated in place to
    describe ``used``.  The diff is one vectorized compare; schedules
    one move apart -- and even cold candidates against the base --
    touch only a handful of occurrences.
    """
    caps = geom.caps_flat
    win = geom.win_flat
    for i in np.nonzero(used != reference_used)[0].tolist():
        cap = int(caps[i])
        before = int(reference_used[i])
        after = int(used[i])
        old_resid = cap - before
        count = resid_hist[old_resid] - 1
        if count:
            resid_hist[old_resid] = count
        else:
            del resid_hist[old_resid]
        new_resid = cap - after
        resid_hist[new_resid] = resid_hist.get(new_resid, 0) + 1
        w = int(win[i])
        if w >= 0:
            window_free[w] -= after - before


def evaluate_state(
    arrays: ArraySpec,
    state: Union[ArrayRunState, NativeRunState],
    future: FutureCharacterization,
    weights: Optional[ObjectiveWeights] = None,
) -> DesignMetrics:
    """Cold array-native evaluation (metrics only); see the delta form."""
    metrics, _ = evaluate_state_delta(arrays, state, future, weights)
    return metrics


def evaluate_state_delta(
    arrays: ArraySpec,
    state: Union[ArrayRunState, NativeRunState],
    future: FutureCharacterization,
    weights: Optional[ObjectiveWeights] = None,
    parent_memo: Optional[ArrayMetricsMemo] = None,
    clean_mask: Sequence[bool] = (),
    bus_clean: bool = False,
) -> Tuple[DesignMetrics, Optional[ArrayMetricsMemo]]:
    """Price a finished array state; byte-identical to the object kernel.

    The array twin of
    :func:`repro.core.metrics.evaluate_design_delta`: cold evaluation
    passes no parent (every resource extracted from the state's
    columns, the bus patched from the precompiled base); delta
    evaluation passes the parent's memo plus
    :meth:`ArraySpec.clean_mask`'s verdict, and clean resources reuse
    the parent's inputs -- clean *everything* reuses the metric values
    themselves.  The mixing steps (packing, window minima, the
    objective) recompute from the per-resource inputs with the object
    kernel's exact expressions, so the returned metrics equal a cold
    object evaluation bit for bit.
    """
    if weights is None:
        weights = ObjectiveWeights()
    geom = arrays.metric_geometry(future.t_min)
    (
        process_runs, process_total, process_min,
        message_runs, message_total,
    ) = _packing_runs(future, arrays.horizon)

    runs_s = state.runs_s
    runs_e = state.runs_e

    all_nodes_clean = parent_memo is not None
    nodes: List[ArrayNodeData] = []
    for n in range(len(runs_s)):
        if parent_memo is not None and clean_mask[n]:
            nodes.append(parent_memo.nodes[n])
        else:
            nodes.append(_node_data(runs_s[n], runs_e[n], geom))
            all_nodes_clean = False

    used = state.bus_used
    bus_clean = parent_memo is not None and bus_clean
    if bus_clean:
        assert parent_memo is not None
        resid_hist = parent_memo.resid_hist
        window_free = parent_memo.window_free
    elif parent_memo is not None:
        resid_hist = dict(parent_memo.resid_hist)
        window_free = list(parent_memo.window_free)
        _patch_bus(resid_hist, window_free, used, parent_memo.bus_used, geom)
    else:
        resid_hist = dict(geom.base_resid_hist)
        window_free = list(geom.base_window_free)
        _patch_bus(resid_hist, window_free, used, geom.base_used, geom)

    if all_nodes_clean:
        assert parent_memo is not None
        c1p = parent_memo.c1p
    elif process_runs:
        container_hist: Dict[int, int] = {}
        for data in nodes:
            for length in data.containers:
                if length >= process_min:
                    container_hist[length] = container_hist.get(length, 0) + 1
        unplaced_total = best_fit_unplaced_total_hist(
            process_runs, container_hist, consume=True
        )
        c1p = 100.0 * unplaced_total / process_total
    else:
        c1p = 0.0

    if bus_clean:
        assert parent_memo is not None
        c1m = parent_memo.c1m
        c2m = parent_memo.c2m
    else:
        if message_runs:
            unplaced_total = best_fit_unplaced_total_hist(
                message_runs, resid_hist
            )
            c1m = 100.0 * unplaced_total / message_total
        else:
            c1m = 0.0
        c2m = min(window_free)

    c2p = sum(data.window_min for data in nodes)

    memo = ArrayMetricsMemo(
        nodes, used, resid_hist, window_free, c1p, c1m, c2m
    )
    return _mix(c1p, c1m, c2p, c2m, future, weights), memo


def bind_objective(
    arrays: ArraySpec,
    future: FutureCharacterization,
    weights: ObjectiveWeights,
) -> None:
    """Bind the objective of ``future`` and ``weights`` to the compiled
    pass's context, so a priced pass mixes it and returns its metrics
    as one :class:`DesignMetrics`.

    A context stays bound until another future or weights object is
    bound; :func:`~repro.engine.evaluation.evaluate_key` compares the
    context's ``future`` and ``weights`` with ``is`` and binds only on
    a change, so the hot path hashes no dataclass and builds no inputs.
    """
    (
        process_runs, process_total, process_min,
        message_runs, message_total,
    ) = _packing_runs(future, arrays.horizon)
    arrays.kernel_context().bind(
        future,
        weights,
        arrays.metric_geometry(future.t_min),
        ObjectiveInputs(
            process_min, process_runs, process_total,
            message_runs, message_total,
            future.t_need, future.b_need,
            (weights.w1p, weights.w1m, weights.w2p, weights.w2m),
            weights.normalize_second,
        ),
        DesignMetrics,
    )


def _mix(
    c1p: float,
    c1m: float,
    c2p: int,
    c2m: int,
    future: FutureCharacterization,
    weights: ObjectiveWeights,
) -> DesignMetrics:
    """The slide-14 penalties and objective, the object kernel's
    expressions."""
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
    return DesignMetrics(c1p, c1m, c2p, c2m, pen2p, pen2m, objective)
