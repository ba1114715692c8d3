"""Structure-of-arrays compiled scheduler core (the ``array`` engine core).

:class:`ArraySpec` lowers a :class:`~repro.engine.compiled_spec.CompiledSpec`
one level further: processes, jobs, nodes, messages and precedence
edges get dense integer ids assigned once, and everything the pass
loop reads -- durations, deadlines, releases, predecessor counts, the
out-edge CSR adjacency, TDMA slot geometry, the frozen base occupancy
-- is materialised as flat arrays.  :meth:`ArraySpec.run_kernel` is
then an index-based rewrite of :meth:`ListScheduler.run_pass`: integer
heap keys, per-node busy-run lists, per-slot used-byte lists, and a
trace recorded as parallel columns instead of per-event objects.

The kernel is *decision-identical* to the object core by construction:

* **Heap order.**  The legacy ready-heap key is the tuple
  ``(urgency, release, process_id, instance)`` (see
  :func:`repro.sched.trace.heap_key`).  The lowering precomputes a
  *static rank* -- the rank of each job under the priority-independent
  tail ``(release, process_id, instance)`` -- and each candidate sorts
  jobs by ``(urgency, static_rank)`` via one ``np.lexsort``.  Because
  the tail makes every legacy key distinct, the map from job to its
  sort position is a bijection that preserves the legacy order
  exactly, so a heap of these *rank integers* pops in the identical
  sequence a heap of legacy tuples would.
* **Placement.**  The gap search inlines
  :meth:`IntervalSet.earliest_fit` over plain start/end lists and
  inserts runs in the same canonical (adjacency-merged) form, so busy
  sets decode byte-identical to the object core's.
* **Bus.**  Slot math inlines
  :meth:`TdmaBus.first_occurrence_not_before` /
  :meth:`BusSchedule.earliest_round_with_room` over per-node used-byte
  lists, including the message-delay re-scan from ``window.start + 1``.
* **Failures.**  Failure strings are formatted with the same templates
  in the same check order, so invalid candidates report identical
  reasons.

At the boundary, :meth:`decode_schedule` rebuilds a plain
:class:`SystemSchedule` (same entry/occupancy insertion orders as the
object kernel) so the metric, verify and serialize layers are
untouched, and :meth:`to_schedule_trace` decodes the column trace into
a legacy :class:`ScheduleTrace` for tests and inspection.

Delta evaluation over array states slice-copies the trace columns: the
divergence scan compares ``(urgency, static_rank)`` pairs (isomorphic
to legacy heap-key comparisons) and checkpoint reconstruction rebuilds
``earliest``/``preds`` with two ``np.ufunc.at`` scatters plus a short
prefix replay of placements -- no object-graph surgery.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.sched.jobs import JobKey
from repro.sched.schedule import ScheduledProcess, SystemSchedule
from repro.sched.trace import MessageEvent, ScheduleTrace
from repro.tdma.schedule import SlotOccupancy
from repro.utils.intervals import IntervalSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transformations import CandidateDesign, MoveFootprint
    from repro.engine.compiled_spec import CompiledSpec
    from repro.sched.priorities import PriorityMap

#: The scheduler cores a :class:`CompiledSpec` can run: ``array`` is the
#: runtime's; ``object`` is the pinned reference that tests and
#: microbenchmarks compare it against.
ENGINE_CORES = ("array", "object")


def resolve_engine_core(requested: str) -> str:
    """Return ``requested`` if it names a core; raise ``ValueError``
    otherwise."""
    if requested not in ENGINE_CORES:
        raise ValueError(
            f"unknown engine core {requested!r}; expected one of "
            f"{ENGINE_CORES}"
        )
    return requested


class ArrayRunState:
    """Loop state and column trace of one array-kernel pass.

    Plays the role :class:`ScheduleTrace` plus the ``run_pass``
    argument bundle play for the object core.  A state lives only as
    long as its pricing: the engine's cold passes record nothing and
    their outcomes keep metrics, not states.  Only a recorded state
    (the delta kernel's direct callers, off the production path) is
    kept, as :class:`~repro.engine.evaluation.EvaluatedDesign.trace`,
    to parent later delta evaluations.  Trace fields are plain lists
    / ints; numpy views of them are cached lazily by :meth:`as_numpy`.
    """

    __slots__ = (
        # candidate lowering
        "node_of", "delays", "urg", "rank_of_job", "job_of_rank", "rank_np",
        # mutable loop state (bus_used is one flat numpy vector over all
        # slot occurrences, node-contiguous -- see ArraySpec.occ_base)
        "runs_s", "runs_e", "bus_used", "earliest", "preds", "ready",
        "scheduled", "total",
        # column trace (skipped when ``columns`` is False: the lazy
        # metric path needs only the final occupancy, so non-delta
        # passes -- including failing ones -- pay no trace bookkeeping)
        "columns",
        "ev_job", "ev_node", "ev_start", "ev_end", "ev_mptr",
        "mv_edge", "mv_round", "mv_arrival",
        # checkpoint bookkeeping (recorded only for the delta kernel)
        "record", "ready_at", "pop",
        # outcome
        "success", "failure_reason",
        "_np",
    )

    def __init__(self) -> None:
        self.success = False
        self.failure_reason: Optional[str] = None
        self._np: Optional[dict] = None

    def as_numpy(self) -> dict:
        """Cached numpy views of the trace columns (the resume substrate)."""
        if self._np is None:
            self._np = {
                "ev_job": np.array(self.ev_job, dtype=np.int64),
                "ev_node": np.array(self.ev_node, dtype=np.int64),
                "ev_start": np.array(self.ev_start, dtype=np.int64),
                "ev_end": np.array(self.ev_end, dtype=np.int64),
                "ev_mptr": np.array(self.ev_mptr, dtype=np.int64),
                "mv_edge": np.array(self.mv_edge, dtype=np.int64),
                "mv_round": np.array(self.mv_round, dtype=np.int64),
                "mv_arrival": np.array(self.mv_arrival, dtype=np.int64),
                "ready_at": np.array(self.ready_at, dtype=np.int64),
                "pop": np.array(self.pop, dtype=np.int64),
            }
        return self._np

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ArrayRunState(events={len(self.ev_job)}, "
            f"scheduled={self.scheduled}/{self.total}, "
            f"success={self.success})"
        )


class _Candidate:
    """Per-candidate lowering: mapping, delays and the rank bijection."""

    __slots__ = ("node_of", "delays", "urg", "rank_of_job", "job_of_rank",
                 "rank_np")

    def __init__(self, node_of, delays, urg, rank_of_job, job_of_rank,
                 rank_np) -> None:
        self.node_of = node_of
        self.delays = delays
        self.urg = urg
        self.rank_of_job = rank_of_job
        self.job_of_rank = job_of_rank
        self.rank_np = rank_np


class ArrayMetricGeometry:
    """Precompiled metric inputs of one ``(ArraySpec, T_min)`` pair.

    Everything the array metric kernel needs that does not depend on
    the candidate: the periodic-window partition, per-occurrence bus
    capacities and window membership over the flat (node-contiguous)
    occurrence layout, the *base* occupancy's residual histogram and
    per-window free bytes (so a candidate is priced by patching the
    base at its few touched occurrences), and the start-order
    permutation that reproduces the object kernel's occurrence order
    for the order-sensitive ablation packing policies.

    Pure integers derived from the immutable lowering -- built once per
    ``T_min`` (one per spec in practice) and shared by every candidate.
    """

    __slots__ = (
        "horizon", "t_min", "n_windows", "window_width", "window_lengths",
        "caps_flat", "win_flat", "base_used", "base_resid_hist",
        "base_window_free", "start_order",
    )

    def __init__(self, spec: "ArraySpec", t_min: int) -> None:
        horizon = spec.horizon
        self.horizon = horizon
        self.t_min = t_min
        n_windows = -(-horizon // t_min)
        self.n_windows = n_windows
        # periodic_windows semantics: consecutive T_min windows, the
        # last truncated at the horizon.  windows[0].length is the
        # splitting width the node-slack pass uses.
        self.window_lengths = [
            min((w + 1) * t_min, horizon) - w * t_min
            for w in range(n_windows)
        ]
        self.window_width = self.window_lengths[0]

        n_occ = spec.n_occ
        caps_flat = np.empty(n_occ, dtype=np.int64)
        win_flat = np.full(n_occ, -1, dtype=np.int64)
        starts: List[Tuple[int, int]] = []
        round_length = spec.round_length
        static_cap = [0] * n_windows
        for n in range(len(spec.node_ids)):
            base = spec.occ_base[n]
            offset = spec.slot_offset[n]
            length = spec.slot_length[n]
            cap = spec.slot_capacity[n]
            for r in range(spec.occ_count[n]):
                i = base + r
                caps_flat[i] = cap
                start = r * round_length + offset
                starts.append((start, i))
                k = start // t_min
                if start + length <= min((k + 1) * t_min, horizon):
                    win_flat[i] = k
                    static_cap[k] += cap
        starts.sort()
        self.caps_flat = caps_flat
        self.win_flat = win_flat
        self.start_order = np.array(
            [i for _, i in starts], dtype=np.int64
        )
        base_used = spec.base_bus_used_flat
        self.base_used = base_used
        base_resid = caps_flat - base_used
        values, counts = np.unique(base_resid, return_counts=True)
        self.base_resid_hist: Dict[int, int] = {
            int(v): int(c) for v, c in zip(values, counts)
        }
        window_used = [0] * n_windows
        for i in np.nonzero(base_used)[0].tolist():
            w = win_flat[i]
            if w >= 0:
                window_used[w] += int(base_used[i])
        self.base_window_free = [
            cap - used for cap, used in zip(static_cap, window_used)
        ]


def _insert_run(ss: List[int], ee: List[int], start: int, end: int) -> None:
    """Insert a non-overlapping busy run in canonical (merged) form.

    Replicates :meth:`IntervalSet.add` for the no-overlap case the
    scheduler guarantees: merge with an adjacent left/right neighbour,
    otherwise splice.  Keeping runs canonical is what makes decoded
    busy sets compare equal to the object core's.
    """
    i = bisect_right(ss, start)
    left = i > 0 and ee[i - 1] == start
    right = i < len(ss) and ss[i] == end
    if left:
        if right:
            ee[i - 1] = ee[i]
            del ss[i]
            del ee[i]
        else:
            ee[i - 1] = end
    elif right:
        ss[i] = start
    else:
        ss.insert(i, start)
        ee.insert(i, end)


class ArraySpec:
    """The structure-of-arrays lowering of one compiled design problem.

    Built lazily (and exactly once) by
    :attr:`CompiledSpec.arrays <repro.engine.compiled_spec.CompiledSpec>`;
    immutable after construction, so one lowering serves every
    candidate of a search run.  Dense id assignment:

    * ``pids`` -- process ids, sorted lexicographically (so the pid
      index doubles as the pid tie-break rank of the legacy heap key);
    * ``node_ids`` -- architecture node order (also the TDMA geometry
      index);
    * jobs -- :class:`JobTable` insertion order (graph x instance x
      process, the order the object kernel iterates);
    * messages / edges -- first-encounter order while walking each
      job's ``out_messages`` (the object kernel's delivery order).
    """

    def __init__(self, compiled: "CompiledSpec") -> None:
        self.compiled = compiled
        self.horizon = compiled.horizon
        self.architecture = compiled.architecture
        application = compiled.application
        table = compiled.job_table

        # --- dense ids -----------------------------------------------
        self.node_ids: List[str] = list(self.architecture.node_ids)
        self.node_index: Dict[str, int] = {
            nid: i for i, nid in enumerate(self.node_ids)
        }
        self.pids: List[str] = sorted(
            {proc.id for proc in application.processes}
        )
        self.pid_index: Dict[str, int] = {
            pid: i for i, pid in enumerate(self.pids)
        }
        self.job_keys: List[JobKey] = list(table.jobs)
        self.job_index: Dict[JobKey, int] = {
            key: i for i, key in enumerate(self.job_keys)
        }
        n_jobs = len(self.job_keys)
        self.n_jobs = n_jobs

        # --- per-job columns -----------------------------------------
        jobs = table.jobs
        self.job_pid: List[int] = []
        self.job_instance: List[int] = []
        self.job_release: List[int] = []
        self.job_deadline: List[int] = []
        for key in self.job_keys:
            job = jobs[key]
            self.job_pid.append(self.pid_index[job.process_id])
            self.job_instance.append(job.instance)
            self.job_release.append(job.release)
            self.job_deadline.append(job.abs_deadline)
        self.job_pid_np = np.array(self.job_pid, dtype=np.int64)
        self.job_release_np = np.array(self.job_release, dtype=np.int64)
        self.job_deadline_f = np.array(self.job_deadline, dtype=np.float64)

        # Static rank: position under the priority-independent key tail
        # (release, process_id, instance).  Urgency + static rank is
        # order-isomorphic to the full legacy heap key.
        tail_order = sorted(
            range(n_jobs),
            key=lambda j: (
                self.job_release[j],
                self.job_keys[j][0],
                self.job_instance[j],
            ),
        )
        static_rank = [0] * n_jobs
        for rank, j in enumerate(tail_order):
            static_rank[j] = rank
        self.static_rank: List[int] = static_rank
        self.static_rank_np = np.array(static_rank, dtype=np.int64)

        self.preds0: List[int] = [
            table.preds_template[key] for key in self.job_keys
        ]
        self.preds0_np = np.array(self.preds0, dtype=np.int64)
        self.sources: List[int] = [
            self.job_index[key] for key in table.sources
        ]

        jobs_by_pid: Dict[str, List[int]] = {}
        for j, key in enumerate(self.job_keys):
            jobs_by_pid.setdefault(key[0], []).append(j)
        self._jobs_by_pid = jobs_by_pid

        # --- WCET table ----------------------------------------------
        n_nodes = len(self.node_ids)
        self.wcet: List[List[int]] = []
        for pid in self.pids:
            row = application.process(pid).wcet
            self.wcet.append(
                [row.get(nid, -1) for nid in self.node_ids]
            )

        # --- out-edge CSR (per job, in out_messages order) -----------
        self.message_ids: List[str] = []
        self.msg_index: Dict[str, int] = {}
        out_ptr: List[int] = [0]
        edge_msg: List[int] = []
        edge_dst: List[int] = []
        edge_dst_pid: List[int] = []
        edge_size: List[int] = []
        for key in self.job_keys:
            pid, instance = key
            graph = application.graph_of(pid)
            for msg in graph.out_messages(pid):
                m = self.msg_index.get(msg.id)
                if m is None:
                    m = len(self.message_ids)
                    self.msg_index[msg.id] = m
                    self.message_ids.append(msg.id)
                edge_msg.append(m)
                edge_dst.append(self.job_index[(msg.dst, instance)])
                edge_dst_pid.append(self.pid_index[msg.dst])
                edge_size.append(msg.size)
            out_ptr.append(len(edge_msg))
        self.out_ptr = out_ptr
        self.edge_msg = edge_msg
        self.edge_dst = edge_dst
        self.edge_dst_pid = edge_dst_pid
        self.edge_size = edge_size
        self.edge_dst_np = np.array(edge_dst, dtype=np.int64)
        self.n_messages = len(self.message_ids)

        # --- TDMA slot geometry (indexed like node_ids) --------------
        bus = self.architecture.bus
        self.round_length: int = bus.round_length
        self.slot_offset: List[int] = []
        self.slot_length: List[int] = []
        self.slot_capacity: List[int] = []
        self.occ_count: List[int] = []
        for nid in self.node_ids:
            slot = bus.slot_of(nid)
            self.slot_offset.append(bus.slot_offset(nid))
            self.slot_length.append(slot.length)
            self.slot_capacity.append(slot.capacity)
            self.occ_count.append(
                bus.occurrence_count_within(nid, self.horizon)
            )

        # --- frozen base occupancy and decode templates --------------
        # The private schedule maps are read directly (and only here,
        # once per compilation): the decode step must reproduce the
        # exact insertion orders SystemSchedule.copy() would, and the
        # public accessors re-sort or re-copy.
        base = compiled.base_template
        self.base_runs_s: List[List[int]] = []
        self.base_runs_e: List[List[int]] = []
        self.base_entries: List[List[ScheduledProcess]] = []
        if base is not None:
            for nid in self.node_ids:
                pairs = base.busy_pairs(nid)
                self.base_runs_s.append([p[0] for p in pairs])
                self.base_runs_e.append([p[1] for p in pairs])
                self.base_entries.append(base._entries[nid])
            self.base_by_process = base._by_process
            bus_sched = base.bus
            self.base_bus_used_map = bus_sched._used
            self.base_bus_entries = bus_sched._entries
            self.base_bus_by_message = bus_sched._by_message
        else:
            for _ in self.node_ids:
                self.base_runs_s.append([])
                self.base_runs_e.append([])
                self.base_entries.append([])
            self.base_by_process = {}
            self.base_bus_used_map = {}
            self.base_bus_entries = {}
            self.base_bus_by_message = {}
        # Flat (node-contiguous) used-byte vector over every usable slot
        # occurrence: occurrence ``r`` of node ``n`` lives at index
        # ``occ_base[n] + r``.  One numpy copy per candidate replaces
        # the per-node list copies, and the metric layer diffs final
        # states against ``base_bus_used_flat`` with one vector compare.
        occ_base: List[int] = []
        total_occ = 0
        for n in range(len(self.node_ids)):
            occ_base.append(total_occ)
            total_occ += self.occ_count[n]
        self.occ_base = occ_base
        self.n_occ = total_occ
        base_used_flat = np.zeros(total_occ, dtype=np.int64)
        for (node_id, r), value in self.base_bus_used_map.items():
            base_used_flat[occ_base[self.node_index[node_id]] + r] = value
        self.base_bus_used_flat = base_used_flat

        # Per-T_min metric geometry, built lazily by metric_geometry().
        self._metric_geometry: Dict[int, "ArrayMetricGeometry"] = {}

    def metric_geometry(self, t_min: int) -> ArrayMetricGeometry:
        """Precompiled metric geometry for one ``T_min`` (cached).

        Real runs use a single ``T_min`` per spec; the cache keys on it
        so weight sweeps stay correct without rebuilding per candidate.
        """
        geom = self._metric_geometry.get(t_min)
        if geom is None:
            geom = ArrayMetricGeometry(self, t_min)
            self._metric_geometry[t_min] = geom
        return geom

    # ------------------------------------------------------------------
    # per-candidate lowering
    # ------------------------------------------------------------------
    def jobs_of(self, pid: str) -> List[int]:
        """Dense job indices of one process id (delta footprint lookup)."""
        return self._jobs_by_pid.get(pid, [])

    def lower_candidate(self, design: "CandidateDesign") -> _Candidate:
        """Mapping/priorities/delays of one candidate, in index form.

        The rank bijection is the heart of the integer heap: jobs
        sorted by ``(urgency, static_rank)`` -- the legacy heap-key
        order -- and ``rank_of_job`` maps each job to its position.
        """
        assignment = design.mapping.as_dict()
        node_index = self.node_index
        node_of = [node_index[assignment[pid]] for pid in self.pids]
        priorities = design.priorities
        prio = np.array(
            [priorities.get(pid, 0.0) for pid in self.pids],
            dtype=np.float64,
        )
        urg = self.job_deadline_f - prio[self.job_pid_np]
        order = np.lexsort((self.static_rank_np, urg))
        rank_np = np.empty(self.n_jobs, dtype=np.int64)
        rank_np[order] = np.arange(self.n_jobs, dtype=np.int64)
        delays = [0] * self.n_messages
        msg_index = self.msg_index
        for mid, value in design.message_delays.items():
            m = msg_index.get(mid)
            if m is not None:
                delays[m] = value
        return _Candidate(
            node_of,
            delays,
            urg.tolist(),
            rank_np.tolist(),
            order.tolist(),
            rank_np,
        )

    def fresh_state(
        self, cand: _Candidate, record: bool, columns: Optional[bool] = None
    ) -> ArrayRunState:
        """Cold-pass loop state: base occupancy, sources ready.

        ``columns`` controls whether the pass appends the ev_*/mv_*
        trace columns; delta-capable (``record``) states always keep
        them (the resume machinery reads them), while pure hot-path
        states skip the bookkeeping -- the array metric kernel reads
        only the final occupancy, and
        :attr:`~repro.engine.evaluation.EvaluatedDesign.schedule`
        re-runs the deterministic pass with columns when a schedule is
        needed after all.
        """
        st = ArrayRunState()
        st.node_of = cand.node_of
        st.delays = cand.delays
        st.urg = cand.urg
        st.rank_of_job = cand.rank_of_job
        st.job_of_rank = cand.job_of_rank
        st.rank_np = cand.rank_np
        st.runs_s = [list(runs) for runs in self.base_runs_s]
        st.runs_e = [list(runs) for runs in self.base_runs_e]
        st.bus_used = self.base_bus_used_flat.copy()
        st.earliest = list(self.job_release)
        st.preds = list(self.preds0)
        rank_of_job = cand.rank_of_job
        ready = [rank_of_job[j] for j in self.sources]
        heapq.heapify(ready)
        st.ready = ready
        st.scheduled = 0
        st.total = self.n_jobs
        st.columns = record if columns is None else (columns or record)
        st.ev_job = []
        st.ev_node = []
        st.ev_start = []
        st.ev_end = []
        st.ev_mptr = [0]
        st.mv_edge = []
        st.mv_round = []
        st.mv_arrival = []
        st.record = record
        if record:
            ready_at = [-1] * self.n_jobs
            for j in self.sources:
                ready_at[j] = 0
            st.ready_at = ready_at
            st.pop = [-1] * self.n_jobs
        else:
            st.ready_at = None
            st.pop = None
        return st

    def schedule_design(
        self,
        design: "CandidateDesign",
        record: bool = False,
        columns: Optional[bool] = None,
    ) -> ArrayRunState:
        """Run one cold pass; the array analogue of ``try_schedule``."""
        design.mapping.validate_complete()
        st = self.fresh_state(self.lower_candidate(design), record, columns)
        self.run_kernel(st)
        return st

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------
    def run_kernel(self, st: ArrayRunState) -> None:
        """The resumable pass loop over index state; mutates ``st``.

        Pop order, gap search, TDMA packing, delay handling, failure
        checks and checkpoint marks replicate ``ListScheduler.run_pass``
        decision for decision -- see the module docstring for the
        order-isomorphism argument.  On return either ``st.success`` is
        True or ``st.failure_reason`` carries the object core's exact
        failure string.
        """
        pids = self.pids
        node_ids = self.node_ids
        job_pid = self.job_pid
        job_instance = self.job_instance
        deadline = self.job_deadline
        wcet = self.wcet
        out_ptr = self.out_ptr
        edge_msg = self.edge_msg
        edge_dst = self.edge_dst
        edge_dst_pid = self.edge_dst_pid
        edge_size = self.edge_size
        mids = self.message_ids
        slot_off = self.slot_offset
        slot_len = self.slot_length
        slot_cap = self.slot_capacity
        occ_count = self.occ_count
        occ_base = self.occ_base
        round_length = self.round_length
        horizon = self.horizon

        node_of = st.node_of
        delays = st.delays
        job_of_rank = st.job_of_rank
        rank_of_job = st.rank_of_job
        runs_s = st.runs_s
        runs_e = st.runs_e
        bus_used = st.bus_used
        earliest = st.earliest
        preds = st.preds
        ready = st.ready
        record = st.record
        columns = st.columns
        ready_at = st.ready_at
        pop = st.pop
        ev_job = st.ev_job
        ev_node = st.ev_node
        ev_start = st.ev_start
        ev_end = st.ev_end
        ev_mptr = st.ev_mptr
        mv_edge = st.mv_edge
        mv_round = st.mv_round
        mv_arrival = st.mv_arrival
        heappop = heapq.heappop
        heappush = heapq.heappush
        bisect = bisect_right
        scheduled = st.scheduled

        while ready:
            j = job_of_rank[heappop(ready)]
            p = job_pid[j]
            n = node_of[p]
            w = wcet[p][n]
            if w < 0:
                # Unreachable behind Mapping's allowed-node validation;
                # delegate so the error matches the object core's.
                self.compiled.application.process(pids[p]).wcet_on(
                    node_ids[n]
                )
            instance = job_instance[j]

            # Inlined IntervalSet.earliest_fit over the run lists.
            ss = runs_s[n]
            ee = runs_e[n]
            cursor = earliest[j]
            idx = bisect(ss, cursor) - 1
            if idx >= 0 and ee[idx] > cursor:
                cursor = ee[idx]
            idx += 1
            n_runs = len(ss)
            while idx < n_runs:
                if ss[idx] - cursor >= w:
                    break
                nxt = ee[idx]
                if nxt > cursor:
                    cursor = nxt
                idx += 1
            start = cursor
            end = start + w
            if end > horizon:
                st.scheduled = scheduled
                st.failure_reason = (
                    f"process {pids[p]!r} instance {instance} does not fit "
                    f"inside the horizon on node {node_ids[n]!r}"
                )
                return
            if end > deadline[j]:
                st.scheduled = scheduled
                st.failure_reason = (
                    f"process {pids[p]!r} instance {instance} misses its "
                    f"deadline ({end} > {deadline[j]}) on node "
                    f"{node_ids[n]!r}"
                )
                return
            # Canonical insertion at idx: the fit search guarantees
            # ee[idx-1] <= start and ss[idx] >= end, so only adjacency
            # can merge.
            if idx > 0 and ee[idx - 1] == start:
                if idx < n_runs and ss[idx] == end:
                    ee[idx - 1] = ee[idx]
                    del ss[idx]
                    del ee[idx]
                else:
                    ee[idx - 1] = end
            elif idx < n_runs and ss[idx] == end:
                ss[idx] = start
            else:
                ss.insert(idx, start)
                ee.insert(idx, end)
            i_ev = scheduled
            scheduled += 1

            for t in range(out_ptr[j], out_ptr[j + 1]):
                dj = edge_dst[t]
                if node_of[edge_dst_pid[t]] == n:
                    arrival = end
                    r = -1
                else:
                    size = edge_size[t]
                    threshold = slot_cap[n] - size
                    offset = slot_off[n]
                    count = occ_count[n]
                    base = occ_base[n]
                    if threshold < 0:
                        r = count
                    else:
                        # first_occurrence_not_before(n, end), then scan.
                        if end <= offset:
                            r = 0
                        else:
                            r = -(-(end - offset) // round_length)
                        while r < count and bus_used[base + r] > threshold:
                            r += 1
                        # Message delay: re-scan from window.start + 1,
                        # i.e. from the next occurrence index.
                        delay = delays[edge_msg[t]]
                        while delay > 0 and r < count:
                            r += 1
                            while r < count and bus_used[base + r] > threshold:
                                r += 1
                            delay -= 1
                    if r >= count:
                        st.scheduled = scheduled
                        st.failure_reason = (
                            f"message {mids[edge_msg[t]]!r} instance "
                            f"{instance} cannot be placed on the bus "
                            f"before the horizon"
                        )
                        return
                    bus_used[base + r] += size
                    arrival = r * round_length + offset + slot_len[n]
                if arrival > earliest[dj]:
                    earliest[dj] = arrival
                left = preds[dj] - 1
                preds[dj] = left
                if left == 0:
                    heappush(ready, rank_of_job[dj])
                    if record:
                        ready_at[dj] = i_ev + 1
                if columns:
                    mv_edge.append(t)
                    mv_round.append(r)
                    mv_arrival.append(arrival)

            if columns:
                ev_job.append(j)
                ev_node.append(n)
                ev_start.append(start)
                ev_end.append(end)
                ev_mptr.append(len(mv_edge))
            if record:
                pop[j] = i_ev

        st.scheduled = scheduled
        if scheduled != st.total:
            # Unreachable with a DAG, kept as a defensive invariant.
            st.failure_reason = (
                "precedence cycle left process instances unscheduled"
            )
            return
        st.success = True

    # ------------------------------------------------------------------
    # delta evaluation over array states
    # ------------------------------------------------------------------
    def divergence(
        self,
        parent: ArrayRunState,
        fp: "MoveFootprint",
        old_priorities: "PriorityMap",
        new_priorities: "PriorityMap",
        new_urg: List[float],
    ) -> int:
        """First parent event index the move can change (see
        :meth:`DeltaEvaluator._divergence`; same logic over columns).

        ``(urgency, static_rank)`` comparisons stand in for legacy
        heap-key comparisons -- the bijection of
        :meth:`lower_candidate` makes them order-identical.
        """
        pop = parent.pop
        d = len(parent.ev_job)
        # repro: allow[DET003] min-accumulation: d only ever decreases, so the scan order over the footprint set cannot change the result
        for pid in fp.processes:
            for j in self._jobs_by_pid.get(pid, ()):
                index = pop[j]
                if index < d:
                    d = index
        if not fp.reprioritized:
            return d

        old_urg = parent.urg
        ready_at = parent.ready_at
        ev_job = parent.ev_job
        static_rank = self.static_rank
        # repro: allow[DET003] min-accumulation: each pid's first-beating index is order-independent; d only shrinks and truncated scans can only skip indexes >= d
        for pid in fp.reprioritized:
            # repro: allow[DET006] both sides are the same stored dict values (copied by moves, never recomputed), so exact equality is sound
            if old_priorities.get(pid, 0.0) == new_priorities.get(pid, 0.0):
                continue
            for j in self._jobs_by_pid.get(pid, ()):
                u_new = new_urg[j]
                u_old = old_urg[j]
                if u_new == u_old:
                    continue
                popped_at = pop[j]
                if u_new > u_old:
                    if popped_at < d:
                        d = popped_at
                    continue
                rank_j = static_rank[j]
                for index in range(ready_at[j], min(popped_at, d)):
                    ev = ev_job[index]
                    u_ev = old_urg[ev]
                    if u_new < u_ev or (
                        u_new == u_ev and rank_j < static_rank[ev]
                    ):
                        d = index
                        break
        return d

    def resume_state(
        self, parent: ArrayRunState, cand: _Candidate, d: int
    ) -> ArrayRunState:
        """Child loop state at checkpoint ``d`` of ``parent``'s pass.

        Trace columns are slice-copied; ``earliest``/``preds`` are
        rebuilt with vectorized scatters over the delivery prefix; the
        ready heap is the parent's ready-but-unpopped set re-keyed with
        the child's ranks.  Recorded event urgencies need no patching:
        heap keys are derived from the *child's* urgency array, which
        is exactly the re-keying the object core performs on its
        prefix.
        """
        st = self.fresh_state(cand, record=True)
        arrays = parent.as_numpy()
        k = int(arrays["ev_mptr"][d])
        if k:
            dst = self.edge_dst_np[arrays["mv_edge"][:k]]
            earliest = self.job_release_np.copy()
            np.maximum.at(earliest, dst, arrays["mv_arrival"][:k])
            preds = self.preds0_np.copy()
            np.add.at(preds, dst, -1)
            st.earliest = earliest.tolist()
            st.preds = preds.tolist()
        ready_at = arrays["ready_at"]
        pop = arrays["pop"]
        in_prefix = ready_at <= d
        st.ready = cand.rank_np[in_prefix & (pop >= d)].tolist()
        heapq.heapify(st.ready)
        st.ready_at = np.where(in_prefix, ready_at, -1).tolist()
        st.pop = np.where(pop < d, pop, -1).tolist()
        st.ev_job = arrays["ev_job"][:d].tolist()
        st.ev_node = arrays["ev_node"][:d].tolist()
        st.ev_start = arrays["ev_start"][:d].tolist()
        st.ev_end = arrays["ev_end"][:d].tolist()
        st.ev_mptr = arrays["ev_mptr"][: d + 1].tolist()
        st.mv_edge = arrays["mv_edge"][:k].tolist()
        st.mv_round = arrays["mv_round"][:k].tolist()
        st.mv_arrival = arrays["mv_arrival"][:k].tolist()
        st.scheduled = d

        # Replay the placement prefix into the run lists / used vector.
        runs_s = st.runs_s
        runs_e = st.runs_e
        bus_used = st.bus_used
        occ_base = self.occ_base
        ev_node = st.ev_node
        ev_mptr = st.ev_mptr
        mv_round = st.mv_round
        mv_edge = st.mv_edge
        edge_size = self.edge_size
        for i in range(d):
            n = ev_node[i]
            _insert_run(runs_s[n], runs_e[n], st.ev_start[i], st.ev_end[i])
            for t in range(ev_mptr[i], ev_mptr[i + 1]):
                r = mv_round[t]
                if r >= 0:
                    bus_used[occ_base[n] + r] += edge_size[mv_edge[t]]
        return st

    def clean_mask(
        self, child: ArrayRunState, parent: ArrayRunState
    ) -> Tuple[List[bool], bool]:
        """Per-node clean flags (dense node order) plus the bus flag.

        Run-list / used-vector equality is exactly the busy-set /
        byte-occupancy equality the object core checks, so the metric
        layer can reuse the parent's inputs for these resources.
        """
        mask = [
            child.runs_s[n] == parent.runs_s[n]
            and child.runs_e[n] == parent.runs_e[n]
            for n in range(len(self.node_ids))
        ]
        return mask, bool(np.array_equal(child.bus_used, parent.bus_used))

    # ------------------------------------------------------------------
    # decode boundary
    # ------------------------------------------------------------------
    def decode_schedule(self, st: ArrayRunState) -> SystemSchedule:
        """Rebuild the :class:`SystemSchedule` of a successful pass.

        Entry lists, the process index and the bus maps are filled in
        the object kernel's insertion orders (base first, then events
        in pop order, deliveries in delivery order), so the decoded
        schedule is indistinguishable from an object-core one -- the
        metric, verify, serialize and proposer layers consume it
        unchanged.

        Requires a state run with ``columns`` (the default metric path
        runs without them); decoding a columnless state would silently
        reproduce only the base template.
        """
        if not st.columns:
            raise ValueError(
                "cannot decode a columnless ArrayRunState; re-run the "
                "pass with columns=True (EvaluatedDesign.schedule does "
                "this on demand)"
            )
        out = SystemSchedule(self.architecture, self.horizon)
        node_ids = self.node_ids
        entry_lists: List[List[ScheduledProcess]] = []
        for n, nid in enumerate(node_ids):
            busy = IntervalSet()
            busy._starts = list(st.runs_s[n])
            busy._ends = list(st.runs_e[n])
            out._busy[nid] = busy
            entries = list(self.base_entries[n])
            out._entries[nid] = entries
            entry_lists.append(entries)
        by_process = dict(self.base_by_process)
        out._by_process = by_process
        bus = out.bus
        used = dict(self.base_bus_used_map)
        bus._used = used
        bus_entries = {
            key: list(value) for key, value in self.base_bus_entries.items()
        }
        bus._entries = bus_entries
        by_message = dict(self.base_bus_by_message)
        bus._by_message = by_message

        pids = self.pids
        mids = self.message_ids
        job_pid = self.job_pid
        job_instance = self.job_instance
        edge_msg = self.edge_msg
        edge_size = self.edge_size
        ev_job = st.ev_job
        ev_node = st.ev_node
        ev_start = st.ev_start
        ev_end = st.ev_end
        ev_mptr = st.ev_mptr
        mv_edge = st.mv_edge
        mv_round = st.mv_round
        for i in range(len(ev_job)):
            j = ev_job[i]
            n = ev_node[i]
            pid = pids[job_pid[j]]
            instance = job_instance[j]
            entry = ScheduledProcess(
                pid, instance, node_ids[n], ev_start[i], ev_end[i], False
            )
            entry_lists[n].append(entry)
            by_process[(pid, instance)] = entry
            for t in range(ev_mptr[i], ev_mptr[i + 1]):
                r = mv_round[t]
                if r < 0:
                    continue
                e = mv_edge[t]
                mid = mids[edge_msg[e]]
                occ = SlotOccupancy(
                    mid, instance, node_ids[n], r, edge_size[e], False
                )
                slot_key = (node_ids[n], r)
                used[slot_key] = used.get(slot_key, 0) + edge_size[e]
                entries = bus_entries.get(slot_key)
                if entries is None:
                    bus_entries[slot_key] = [occ]
                else:
                    entries.append(occ)
                by_message[(mid, instance)] = occ
        return out

    def to_schedule_trace(self, st: ArrayRunState) -> ScheduleTrace:
        """Decode the column trace into a legacy :class:`ScheduleTrace`.

        Test/inspection boundary only -- the hot paths never build
        per-event objects.  Heap keys are reconstructed from the
        candidate's urgency array (recorded keys equal the candidate's
        own urgencies by the re-keying invariant).
        """
        trace = ScheduleTrace(self.horizon)
        pids = self.pids
        mids = self.message_ids
        node_ids = self.node_ids
        job_pid = self.job_pid
        job_instance = self.job_instance
        job_release = self.job_release
        job_keys = self.job_keys
        if st.record:
            for j, at in enumerate(st.ready_at):
                if at >= 0:
                    trace.ready_at[job_keys[j]] = int(at)
        for i in range(len(st.ev_job)):
            j = st.ev_job[i]
            n = st.ev_node[i]
            key = job_keys[j]
            heap_key = (
                st.urg[j],
                job_release[j],
                pids[job_pid[j]],
                int(job_instance[j]),
            )
            messages = []
            bus_touched = False
            for t in range(st.ev_mptr[i], st.ev_mptr[i + 1]):
                e = st.mv_edge[t]
                r = st.mv_round[t]
                if r >= 0:
                    bus_touched = True
                messages.append(
                    MessageEvent(
                        mids[self.edge_msg[e]],
                        int(job_instance[j]),
                        node_ids[n],
                        int(r) if r >= 0 else None,
                        int(st.mv_arrival[t]),
                        int(self.edge_size[e]),
                        job_keys[self.edge_dst[e]],
                    )
                )
            trace.record_event(
                key,
                node_ids[n],
                int(st.ev_start[i]),
                int(st.ev_end[i]),
                heap_key,
                tuple(messages),
                bus_touched,
            )
        return trace
