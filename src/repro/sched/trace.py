"""Scheduling traces: the checkpoint substrate of incremental evaluation.

A :class:`ScheduleTrace` records the *decision sequence* of one
successful list-scheduling pass: the order process instances were
popped from the ready heap, where each one was placed, and how each of
its outgoing messages was delivered.  Together with the per-job
bookkeeping (`ready_at`, `pop_index`) this is a complete set of
timeline checkpoints: scheduling can be restarted from *any* event
index ``d`` by replaying events ``[0, d)`` -- which needs no heap, no
gap search and no TDMA slot search -- and resuming the normal algorithm
from there.

The delta evaluator (:mod:`repro.engine.delta`) uses traces in two
ways:

* **divergence analysis** -- given a move's footprint, the earliest
  event whose decision could differ from the parent run is derived
  from ``pop_index`` (mapping / message-delay changes matter when the
  affected process is popped) and ``ready_at`` plus the recorded heap
  keys (priority changes matter from the moment the re-keyed job sits
  in the ready heap and could win a pop);
* **prefix replay** -- events before the divergence are re-applied
  verbatim; per-node timelines whose last recorded touch lies before
  the divergence are structurally shared from the parent schedule
  instead of being replayed at all.

Traces are recorded only when the caller asks for them
(``record_trace``, which only the delta kernel's callers pass; that
kernel is off the production path); plain scheduling pays nothing.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.sched.jobs import Job, JobKey

#: The ready-heap key of one job: ``(urgency, release, pid, instance)``.
HeapKey = Tuple[float, int, str, int]


def heap_key(job: Job, priorities: Mapping[str, float]) -> HeapKey:
    """Min-heap key: most urgent ready job first.

    Urgency is the job's *latest start time*: absolute deadline minus
    its priority value, where the default (HCP) priority is the length
    of the remaining critical path.  Within one graph (shared deadline)
    this reduces to classic highest-priority-first HCP ordering; across
    graphs it folds the deadline in, so an urgent short application is
    not starved by a long relaxed one.  Ties break on release time,
    then ids.

    The single definition shared by the object kernel
    (:mod:`repro.sched.list_scheduler`), the delta evaluator's
    divergence analysis, and the array kernel's rank construction
    (:mod:`repro.sched.arrays`), so tie-breaking can never drift
    between them.
    """
    return (
        job.abs_deadline - priorities.get(job.process_id, 0.0),
        job.release,
        job.process_id,
        job.instance,
    )


class MessageEvent(NamedTuple):
    """One message delivery performed while processing a trace event.

    ``round_index`` is ``None`` for intra-node messages (delivered
    instantly, nothing placed on the bus).  ``succ_key`` is the
    receiving job, stored so replay needs no graph lookups.
    """

    message_id: str
    instance: int
    src_node: str
    round_index: Optional[int]
    arrival: int
    size: int
    succ_key: JobKey


class TraceEvent(NamedTuple):
    """One ready-heap pop: a job placement plus its message deliveries.

    ``heap_key`` is the key the job was popped with; divergence
    analysis compares re-keyed dirty jobs against it to find the first
    pop a priority move could steal.
    """

    key: JobKey
    node_id: str
    start: int
    end: int
    heap_key: HeapKey
    messages: Tuple[MessageEvent, ...]


class ScheduleTrace:
    """Decision sequence and checkpoint bookkeeping of one pass.

    Attributes
    ----------
    horizon:
        Horizon of the schedule the trace belongs to.
    events:
        One :class:`TraceEvent` per ready-heap pop, in pop order.
    ready_at:
        Per job, the earliest event index at which the job sat in the
        ready heap: sources are ready from event 0, a job pushed while
        event ``i`` was processed is in the heap from event ``i + 1``.
    pop_index:
        Per job, the event index at which it was popped (every job of
        a *successful* pass has one).
    node_last:
        Per node, the index of the last event placed on it (absent =
        never touched).  A node whose last touch lies before a
        divergence point can be structurally shared from the parent.
    bus_last:
        Index of the last event that placed a message on the bus
        (``-1`` when the pass used the bus not at all).
    """

    __slots__ = ("horizon", "events", "ready_at", "pop_index", "node_last", "bus_last")

    def __init__(
        self,
        horizon: int,
        events: Optional[List[TraceEvent]] = None,
        ready_at: Optional[Dict[JobKey, int]] = None,
        pop_index: Optional[Dict[JobKey, int]] = None,
        node_last: Optional[Dict[str, int]] = None,
        bus_last: int = -1,
    ):
        self.horizon = horizon
        self.events: List[TraceEvent] = [] if events is None else events
        self.ready_at: Dict[JobKey, int] = {} if ready_at is None else ready_at
        self.pop_index: Dict[JobKey, int] = {} if pop_index is None else pop_index
        self.node_last: Dict[str, int] = {} if node_last is None else node_last
        self.bus_last = bus_last

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # recording (called by the list scheduler's pass loop)
    # ------------------------------------------------------------------
    def mark_source(self, key: JobKey) -> None:
        """Record a job that is in the ready heap before any event."""
        self.ready_at[key] = 0

    def mark_ready(self, key: JobKey) -> None:
        """Record a job pushed while the current event is processed."""
        self.ready_at[key] = len(self.events) + 1

    def record_event(
        self,
        key: JobKey,
        node_id: str,
        start: int,
        end: int,
        heap_key: HeapKey,
        messages: Tuple[MessageEvent, ...],
        bus_touched: bool,
    ) -> None:
        """Append one completed pop (placement + deliveries)."""
        index = len(self.events)
        self.pop_index[key] = index
        self.node_last[node_id] = index
        if bus_touched:
            self.bus_last = index
        self.events.append(
            TraceEvent(key, node_id, start, end, heap_key, messages)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduleTrace(events={len(self.events)}, "
            f"horizon={self.horizon})"
        )
