"""Static cyclic scheduling substrate.

The paper assumes non-preemptive static cyclic scheduling of processes
on nodes and of messages in TDMA slots.  This subpackage provides:

* :class:`~repro.sched.schedule.SystemSchedule` -- the schedule table:
  per-node process reservations plus the bus schedule, over one
  hyperperiod, with *frozen* entries representing existing
  applications that must not be modified (requirement (a)).
* :class:`~repro.sched.list_scheduler.ListScheduler` -- priority-driven
  list scheduling of an application (expanded to all its periodic
  instances) around the frozen reservations, packing inter-node
  messages into TDMA slot occurrences.
* :mod:`~repro.sched.priorities` -- the Heterogeneous Critical Path
  (HCP) priority of Jorgensen & Madsen (CODES'97) that seeds the
  paper's Initial Mapping.
* :mod:`~repro.sched.render` -- ASCII Gantt charts of schedules for
  examples and debugging.
"""

from repro.sched.schedule import ScheduledProcess, SystemSchedule
from repro.sched.list_scheduler import ListScheduler, ScheduleResult
from repro.sched.priorities import hcp_priorities, PriorityMap
from repro.sched.render import render_gantt
from repro.sched.asap_alap import TimeBounds, alap_schedule, asap_schedule, time_bounds
from repro.sched.verify import verify_design

__all__ = [
    "ScheduledProcess",
    "SystemSchedule",
    "ListScheduler",
    "ScheduleResult",
    "hcp_priorities",
    "PriorityMap",
    "render_gantt",
    "TimeBounds",
    "asap_schedule",
    "alap_schedule",
    "time_bounds",
    "verify_design",
]
