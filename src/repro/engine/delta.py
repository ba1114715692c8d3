"""Move-aware incremental (delta) evaluation of candidate designs.

**Off the production path.**  No strategy, search loop or engine calls
this module: :class:`~repro.engine.engine.EvaluationEngine` solves every
cache miss cold, which measured faster end to end than resuming from
a parent's checkpoints.  The module stays, with its direct
delta-equals-cold tests, only because the benchmark of record
(``perfbench/spans.py``) still wraps :meth:`DeltaEvaluator.evaluate_move`
and the array resume primitives it calls; it goes once a benchmark
change retires those spans.

Every candidate a search strategy proposes differs from its *parent* by
one transformation -- a remap, a priority swap, or a message delay.  A
cold evaluation nevertheless rebuilds the entire system schedule from
the compiled spec, redoing work that is byte-identical to the parent's
for every decision before the move first matters.

:class:`DeltaEvaluator` exploits that structure in three steps:

1. **Divergence analysis.**  The move's
   :class:`~repro.core.transformations.MoveFootprint` is turned into
   the earliest event index ``d`` of the parent's
   :class:`~repro.sched.trace.ScheduleTrace` at which the child's
   scheduling pass can differ: placement-dirty processes matter from
   the first pop of one of their instances; re-keyed (priority-dirty)
   jobs matter from the first recorded pop their new heap key would
   win -- or from their own pop when the new key is weaker.  Events
   before ``d`` are provably identical in parent and child.

2. **Checkpoint reconstruction.**  The child's schedule state at ``d``
   is rebuilt without scheduling: per-node timelines whose last parent
   touch lies before ``d`` are structurally shared (bulk-copied) from
   the parent's final schedule; dirty nodes are bulk-loaded from the
   prefix's replayed reservations; the bus is shared or replayed the
   same way.  The ready heap, earliest-start map and predecessor
   counts are reconstructed from the trace prefix.

3. **Resume.**  :meth:`ListScheduler.run_pass` -- the same loop a cold
   pass runs -- finishes the schedule from ``d``, and the metrics are
   recomputed with :func:`~repro.core.metrics.evaluate_design_delta`,
   reusing the parent's per-resource slack inputs for every resource
   the resume never touched.

The result is **bit-identical** to a cold evaluation: same schedule
occupancy, same metrics, same failure reasons for invalid children,
and a trace/memo equal to what a cold traced run would have produced
(so children chain as parents).  When any precondition fails -- the
parent has no trace, the move type is unknown, or the divergence is at
event 0 -- the evaluator *falls back to a full cold evaluation*; it
never guesses.
"""

from __future__ import annotations

import heapq
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.engine.evaluation import (
    EvaluatedDesign,
    StageTimings,
    evaluate_candidate,
)
from repro.sched.arrays import ArrayRunState
from repro.sched.list_scheduler import ListScheduler, ScheduleResult
from repro.sched.trace import ScheduleTrace, heap_key
from repro.tdma.schedule import BusSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transformations import (
        CandidateDesign,
        MoveFootprint,
        Transformation,
    )
    from repro.engine.compiled_spec import CompiledSpec
    from repro.sched.jobs import JobKey


class DeltaEvaluator:
    """Evaluates ``(parent, move)`` pairs by rescheduling from a checkpoint.

    Parameters
    ----------
    compiled:
        The compiled design problem shared with cold evaluation.
    scheduler:
        The list scheduler to resume passes with; defaults to a fresh
        one over the compiled architecture.
    """

    def __init__(
        self,
        compiled: "CompiledSpec",
        scheduler: Optional[ListScheduler] = None,
        timings: Optional[StageTimings] = None,
    ):
        self.compiled = compiled
        self.scheduler = (
            scheduler
            if scheduler is not None
            else ListScheduler(compiled.architecture)
        )
        self.timings = timings
        table = compiled.job_table
        jobs_of: Dict[str, List["JobKey"]] = {}
        for key in table.jobs:
            jobs_of.setdefault(key[0], []).append(key)
        self._jobs_of = jobs_of

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate_move(
        self,
        parent: EvaluatedDesign,
        move: "Transformation",
        child: Optional["CandidateDesign"] = None,
    ) -> Tuple[Optional[EvaluatedDesign], bool]:
        """Evaluate the child of ``(parent, move)``.

        Returns ``(outcome, used_delta)``: the outcome is exactly what
        a cold evaluation of ``move.apply(parent.design)`` returns
        (``None`` for invalid children), and ``used_delta`` reports
        whether the incremental path ran or the evaluator fell back to
        a full evaluation.
        """
        from repro.core.metrics import evaluate_design_delta

        if child is None:
            child = move.apply(parent.design)
        if self.compiled.use_arrays:
            return self._evaluate_move_arrays(parent, move, child)
        timings = self.timings
        start = time.perf_counter_ns()
        attempt = self.try_resume(parent, move, child)
        mid = time.perf_counter_ns()
        if timings is not None:
            timings.sched_ns += mid - start
        if attempt is None:
            outcome = evaluate_candidate(
                self.compiled.spec,
                self.compiled,
                self.scheduler,
                child,
                record_trace=True,
                timings=timings,
            )
            return outcome, False
        result, clean_nodes, bus_clean = attempt
        if not result.success:
            return None, True
        metrics, memo = evaluate_design_delta(
            result.schedule,
            self.compiled.spec.future,
            self.compiled.spec.weights,
            parent_memo=parent.memo,
            clean_nodes=clean_nodes,
            bus_clean=bus_clean,
            parent_bus=parent.schedule.bus,
        )
        if timings is not None:
            timings.sched_ns += time.perf_counter_ns() - mid
        outcome = EvaluatedDesign(
            child, result.schedule, metrics, trace=result.trace, memo=memo,
            compiled=self.compiled,
        )
        return outcome, True

    def _evaluate_move_arrays(
        self,
        parent: EvaluatedDesign,
        move: "Transformation",
        child: "CandidateDesign",
    ) -> Tuple[Optional[EvaluatedDesign], bool]:
        """The array-core twin of :meth:`evaluate_move`'s resume branch.

        Same contract, different substrate: divergence, checkpoint
        reconstruction *and the metrics* run over the parent's
        :class:`ArrayRunState` columns (:meth:`ArraySpec.divergence` /
        :meth:`ArraySpec.resume_state` /
        :func:`repro.core.array_metrics.evaluate_state_delta`); no
        object schedule is decoded -- the outcome decodes lazily if a
        consumer ever asks.
        """
        from repro.core.array_metrics import (
            ArrayMetricsMemo,
            evaluate_state_delta,
        )

        timings = self.timings
        start = time.perf_counter_ns()
        attempt = self.try_resume_arrays(parent, move, child)
        mid = time.perf_counter_ns()
        if timings is not None:
            timings.sched_ns += mid - start
        if attempt is None:
            outcome = evaluate_candidate(
                self.compiled.spec,
                self.compiled,
                self.scheduler,
                child,
                record_trace=True,
                timings=timings,
            )
            return outcome, False
        state, clean_mask, bus_clean = attempt
        if not state.success:
            return None, True
        arrays = self.compiled.arrays
        parent_memo = parent.memo
        if not isinstance(parent_memo, ArrayMetricsMemo):
            # Engine-core switch or legacy parent: price cold.
            parent_memo = None
        metrics, memo = evaluate_state_delta(
            arrays,
            state,
            self.compiled.spec.future,
            self.compiled.spec.weights,
            parent_memo=parent_memo,
            clean_mask=clean_mask,
            bus_clean=bus_clean,
        )
        if timings is not None:
            timings.sched_ns += time.perf_counter_ns() - mid
        outcome = EvaluatedDesign(
            child, None, metrics, trace=state, memo=memo,
            compiled=self.compiled, timings=timings,
        )
        return outcome, True

    def try_resume_arrays(
        self,
        parent: EvaluatedDesign,
        move: "Transformation",
        child: "CandidateDesign",
    ) -> Optional[Tuple[ArrayRunState, List[bool], bool]]:
        """Array-core checkpoint resume; see :meth:`try_resume`.

        Returns ``None`` when the incremental path cannot run (parent
        without a recorded array state -- including a parent traced by
        the object core -- unknown move type, or divergence
        at event 0); otherwise the finished child state plus the
        per-node clean mask (dense node order) and bus-clean flag.
        """
        state = parent.trace
        if not isinstance(state, ArrayRunState) or not state.record:
            return None
        footprint = getattr(move, "footprint", None)
        if footprint is None:
            return None
        fp = footprint(parent.design)
        child.mapping.validate_complete()
        arrays = self.compiled.arrays
        cand = arrays.lower_candidate(child)
        d = arrays.divergence(
            state, fp, parent.design.priorities, child.priorities, cand.urg
        )
        if d <= 0:
            return None
        resumed = arrays.resume_state(state, cand, d)
        arrays.run_kernel(resumed)
        if not resumed.success:
            return resumed, [], False
        clean_mask, bus_clean = arrays.clean_mask(resumed, state)
        return resumed, clean_mask, bus_clean

    def try_resume(
        self,
        parent: EvaluatedDesign,
        move: "Transformation",
        child: "CandidateDesign",
    ) -> Optional[Tuple[ScheduleResult, Set[str], bool]]:
        """Reschedule the child from the parent's earliest dirty point.

        Returns ``None`` when the incremental path cannot run (parent
        without trace, unknown move type, divergence at event 0 --
        i.e., a full reschedule anyway).  Otherwise returns the
        resumed pass's :class:`ScheduleResult` -- whose success flag,
        failure reason and job counts equal a cold run's -- plus the
        set of *clean* nodes and the bus-clean flag: resources whose
        final timeline is byte-identical to the parent's, reusable by
        the metric layer.
        """
        trace = parent.trace
        if not isinstance(trace, ScheduleTrace):
            return None
        footprint = getattr(move, "footprint", None)
        if footprint is None:
            return None
        fp = footprint(parent.design)
        d = self._divergence(parent, child, fp)
        if d <= 0:
            return None

        compiled = self.compiled
        table = compiled.job_table
        events = trace.events
        architecture = compiled.architecture
        base = compiled.base_template
        parent_schedule = parent.schedule

        # --- checkpoint reconstruction -------------------------------
        # Two ways to rebuild the schedule state at event ``d``, picked
        # by divergence depth.  Early divergence: replay the short
        # prefix forward from the base template -- cheaper than bulk
        # node rebuilds when almost everything is dirty.  Late
        # divergence: copy the parent wholesale (C-speed dict/list
        # copies), prune the jobs scheduled at or after ``d``, and
        # bulk-reload only the node timelines the parent touched there;
        # every other node keeps the parent's final (== prefix) state.
        earliest = table.fresh_earliest()
        preds_left = table.fresh_preds()
        node_last: Dict[str, int] = {}
        bus_last = -1
        total = len(events)
        shared_bus = False
        if 2 * d <= total:
            schedule = compiled.fresh_schedule()
            bus_place = schedule.bus.place
            for index in range(d):
                event = events[index]
                pid, instance = event.key
                schedule.place_process(
                    pid,
                    instance,
                    event.node_id,
                    event.start,
                    event.end - event.start,
                )
                node_last[event.node_id] = index
                for message in event.messages:
                    succ_key = message.succ_key
                    if message.arrival > earliest[succ_key]:
                        earliest[succ_key] = message.arrival
                    preds_left[succ_key] -= 1
                    if message.round_index is not None:
                        bus_last = index
                        bus_place(
                            message.message_id,
                            message.instance,
                            message.src_node,
                            message.round_index,
                            message.size,
                            False,
                        )
        else:
            schedule = parent_schedule.copy()
            schedule.prune_jobs(
                events[index].key for index in range(d, total)
            )
            dirty_nodes = [
                node_id
                for node_id in architecture.node_ids
                if trace.node_last.get(node_id, -1) >= d
            ]
            shared_bus = trace.bus_last < d
            if not shared_bus:
                if base is not None:
                    schedule.bus = base.bus.copy()
                else:
                    schedule.bus = BusSchedule(
                        architecture.bus, compiled.horizon
                    )
            for node_id, index in trace.node_last.items():
                if index < d:
                    node_last[node_id] = index
            if shared_bus:
                bus_last = trace.bus_last
            pending: Dict[str, List] = {
                node_id: [] for node_id in dirty_nodes
            }
            bus_place = schedule.bus.place
            for index in range(d):
                event = events[index]
                node_pending = pending.get(event.node_id)
                if node_pending is not None:
                    node_pending.append(parent_schedule.entry_of(*event.key))
                    node_last[event.node_id] = index
                for message in event.messages:
                    succ_key = message.succ_key
                    if message.arrival > earliest[succ_key]:
                        earliest[succ_key] = message.arrival
                    preds_left[succ_key] -= 1
                    if message.round_index is not None:
                        bus_last = index
                        if not shared_bus:
                            bus_place(
                                message.message_id,
                                message.instance,
                                message.src_node,
                                message.round_index,
                                message.size,
                                False,
                            )
            for node_id in dirty_nodes:
                entries = (
                    base.node_entries(node_id) if base is not None else []
                )
                entries.extend(pending[node_id])
                schedule.load_node(node_id, entries)
                if not pending[node_id]:
                    node_last.pop(node_id, None)

        # --- trace prefix and ready heap -----------------------------
        prefix = events[:d]
        ready_at = {k: r for k, r in trace.ready_at.items() if r <= d}
        pop_index = {k: i for k, i in trace.pop_index.items() if i < d}
        jobs = table.jobs
        priorities = child.priorities
        if fp.reprioritized:
            # Re-key prefix events of re-keyed jobs: a cold child run
            # records their *new* keys, and future divergence scans
            # compare against the recorded values.
            for pid in fp.reprioritized:
                for key in self._jobs_of.get(pid, ()):
                    index = pop_index.get(key)
                    if index is None:
                        continue
                    new_key = heap_key(jobs[key], priorities)
                    if new_key != prefix[index].heap_key:
                        prefix[index] = prefix[index]._replace(
                            heap_key=new_key
                        )
        ready = [
            heap_key(jobs[key], priorities)
            for key in ready_at
            if key not in pop_index
        ]
        heapq.heapify(ready)
        resumed_trace = ScheduleTrace(
            trace.horizon,
            events=prefix,
            ready_at=ready_at,
            pop_index=pop_index,
            node_last=node_last,
            bus_last=bus_last,
        )

        # --- resume the shared pass loop -----------------------------
        result = self.scheduler.run_pass(
            compiled.application,
            child.mapping,
            priorities,
            child.message_delays,
            schedule,
            table,
            earliest,
            preds_left,
            ready,
            scheduled=d,
            frozen=False,
            trace=resumed_trace,
        )
        if not result.success:
            return result, set(), False

        # A resource is clean -- its metric inputs are reusable from
        # the parent -- when its final occupancy equals the parent's.
        # Shared-and-untouched resources are clean by construction;
        # resumed ones usually re-derive the parent's layout exactly
        # (the move perturbs a small region), which the cheap busy-set
        # / byte-occupancy comparisons detect.
        child_trace = result.trace
        clean_nodes = set()
        for node_id in architecture.node_ids:
            if (
                trace.node_last.get(node_id, -1) < d
                and child_trace.node_last.get(node_id, -1) < d
            ) or schedule.busy_equals(parent_schedule, node_id):
                clean_nodes.add(node_id)
        bus_clean = (
            shared_bus and child_trace.bus_last < d
        ) or schedule.bus.occupancy_equals(parent_schedule.bus)
        return result, clean_nodes, bus_clean

    # ------------------------------------------------------------------
    # divergence analysis
    # ------------------------------------------------------------------
    def _divergence(
        self,
        parent: EvaluatedDesign,
        child: "CandidateDesign",
        fp: "MoveFootprint",
    ) -> int:
        """First parent event index whose decision the move can change.

        Every event strictly before the returned index is provably
        identical between the parent's pass and a cold pass of the
        child, so the child can resume there.
        """
        trace = parent.trace
        events = trace.events
        pop_index = trace.pop_index
        d = len(events)

        # repro: allow[DET003] min-accumulation: d only ever decreases, so the scan order over the footprint set cannot change the result
        for pid in fp.processes:
            for key in self._jobs_of.get(pid, ()):
                index = pop_index[key]
                if index < d:
                    d = index
        if not fp.reprioritized:
            return d

        jobs = self.compiled.job_table.jobs
        old_priorities = parent.design.priorities
        new_priorities = child.priorities
        # repro: allow[DET003] min-accumulation: each pid's first-beating index is order-independent; d only shrinks and truncated scans can only skip indexes >= d
        for pid in fp.reprioritized:
            # repro: allow[DET006] both sides are the same stored dict values (copied by moves, never recomputed), so exact equality is sound
            if old_priorities.get(pid, 0.0) == new_priorities.get(pid, 0.0):
                continue
            for key in self._jobs_of.get(pid, ()):
                job = jobs[key]
                old_key = heap_key(job, old_priorities)
                new_key = heap_key(job, new_priorities)
                if new_key == old_key:
                    continue
                popped_at = pop_index[key]
                if new_key > old_key:
                    # The job got less urgent: at its own pop it may
                    # now lose to the runner-up, which the trace does
                    # not identify -- conservatively diverge there.
                    if popped_at < d:
                        d = popped_at
                    continue
                # The job got more urgent: it pops earlier only at the
                # first recorded pop its new key beats while it sits in
                # the ready heap; if it beats none, the pop order (and
                # hence everything) is unchanged.
                for index in range(trace.ready_at[key], min(popped_at, d)):
                    if new_key < events[index].heap_key:
                        d = index
                        break
        return d
