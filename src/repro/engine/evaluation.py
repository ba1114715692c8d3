"""The single candidate-evaluation primitive every search loop shares.

``evaluate_candidate`` is the pure function at the bottom of the whole
optimization stack: schedule one :class:`CandidateDesign` with the
compiled problem and price the result with the slide-14 objective.  The
uncached path, the cache-miss path and every shard's engine call
exactly this function, which is what makes cached, uncached and
sharded runs bit-identical.

Under the array core the hot path never leaves the flat representation:
the pass finishes as an :class:`~repro.sched.arrays.ArrayRunState`, the
metrics are priced directly on its columns
(:mod:`repro.core.array_metrics`), and the object
:class:`~repro.sched.schedule.SystemSchedule` is decoded **lazily** --
:attr:`EvaluatedDesign.schedule` builds it on first access (accepted
incumbents, serialization, verify, figures), while the thousands of
rejected candidates per search never pay for it.

Imports from :mod:`repro.core` are deferred to call time: the engine
package sits between ``sched`` and ``core`` in the layer diagram
(``core.strategy`` imports the engine), so importing core modules at
module scope would be circular.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from repro.sched.arrays import ArrayRunState, ArraySpec
from repro.sched.schedule import SystemSchedule
from repro.sched.trace import ScheduleTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Union
    from repro.core.metrics import DesignMetrics
    from repro.core.strategy import DesignSpec
    from repro.core.transformations import CandidateDesign
    from repro.engine.compiled_spec import CompiledSpec
    from repro.model.mapping import Mapping
    from repro.sched.list_scheduler import ListScheduler
    from repro.sched.priorities import PriorityMap


class StageTimings:
    """Nanosecond wall-time buckets of the evaluation pipeline.

    One mutable sink per engine: scheduling, metric pricing and
    schedule decode accumulate separately, so the per-stage Amdahl
    split of a search run is visible in the engine statistics without
    a profiler.  Time recorded here feeds reporting only -- never a
    scheduling decision.
    """

    __slots__ = ("sched_ns", "metrics_ns", "decode_ns")

    def __init__(
        self, sched_ns: int = 0, metrics_ns: int = 0, decode_ns: int = 0
    ) -> None:
        self.sched_ns = sched_ns
        self.metrics_ns = metrics_ns
        self.decode_ns = decode_ns


class EvaluatedDesign:
    """A valid candidate design with its metric values.

    ``trace`` and ``memo`` are the incremental-evaluation attachments,
    present only on outcomes built with ``record_trace`` (the delta
    kernel's direct callers; the engine evaluates every candidate
    cold and never records them): the scheduling decision sequence
    and the per-resource metric inputs that let a *child* design --
    one move away -- be evaluated from this design's checkpoints
    instead of from scratch.  ``trace`` is duck-typed by
    engine core: a :class:`ScheduleTrace` under the object core, an
    :class:`~repro.sched.arrays.ArrayRunState` under the array core;
    the delta evaluator dispatches on the type and treats a mismatch
    (a parent evaluated under the other core) as "no trace".  ``memo``
    follows the same split (``MetricsMemo`` / ``ArrayMetricsMemo``).

    Under the array core :attr:`schedule` is **lazy**: the constructor
    receives the finished array state instead of a decoded schedule,
    and the object :class:`SystemSchedule` is decoded on first access
    (re-running the pass with trace columns when the state was produced
    without them).  The decode is cached, so incumbents price the
    conversion once; rejected candidates never do.
    """

    __slots__ = (
        "design", "metrics", "trace", "memo",
        "_schedule", "_state", "_arrays", "_timings", "_compiled",
    )

    def __init__(
        self,
        design: "CandidateDesign",
        schedule: Optional[SystemSchedule],
        metrics: "DesignMetrics",
        trace: Optional["Union[ScheduleTrace, ArrayRunState]"] = None,
        memo: Optional["Any"] = None,
        *,
        state: Optional[ArrayRunState] = None,
        arrays: Optional[ArraySpec] = None,
        timings: Optional[StageTimings] = None,
        compiled: Optional["CompiledSpec"] = None,
    ) -> None:
        if (
            schedule is None
            and (state is None or arrays is None)
            and compiled is None
        ):
            raise ValueError(
                "EvaluatedDesign needs a schedule or an array state to "
                "decode one from (or a compiled spec to re-derive one "
                "against)"
            )
        self.design = design
        self.metrics = metrics
        self.trace = trace
        self.memo = memo
        self._schedule = schedule
        self._state = state
        self._arrays = arrays
        self._timings = timings
        self._compiled = compiled

    # ------------------------------------------------------------------
    @property
    def schedule(self) -> SystemSchedule:
        """The object schedule, decoded (or re-derived) on demand.

        Three sources, in order: the eagerly built schedule (object
        core), the finished array state (array core's lazy decode), or
        -- for store-served outcomes, which persist metrics only -- a
        full deterministic re-run of the scheduling pass against the
        attached compiled spec.
        """
        schedule = self._schedule
        if schedule is None:
            state = self._state
            arrays = self._arrays
            start = time.perf_counter_ns()
            if state is not None and arrays is not None:
                if not state.columns:
                    # The hot path runs without trace columns; re-run
                    # the (deterministic) pass with them to decode.
                    state = arrays.schedule_design(
                        self.design, record=False, columns=True
                    )
                schedule = arrays.decode_schedule(state)
            elif self._compiled is not None:
                schedule = self._rederive(self._compiled)
            else:
                raise ValueError(
                    "EvaluatedDesign has no decode substrate (neither an "
                    "array state with its ArraySpec nor a compiled spec)"
                )
            self._schedule = schedule
            timings = self._timings
            if timings is not None:
                timings.decode_ns += time.perf_counter_ns() - start
        return schedule

    def _rederive(self, compiled: "CompiledSpec") -> SystemSchedule:
        """Re-run the (deterministic) array pass to rebuild the schedule."""
        arrays = compiled.arrays
        state = arrays.schedule_design(self.design, record=False, columns=True)
        if not state.success:
            raise ValueError(
                "stored design no longer schedules; the result "
                "store and the compiled spec disagree"
            )
        return arrays.decode_schedule(state)

    @property
    def objective(self) -> float:
        return self.metrics.objective

    @property
    def mapping(self) -> "Mapping":
        return self.design.mapping

    @property
    def priorities(self) -> "PriorityMap":
        return self.design.priorities

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        decoded = "decoded" if self._schedule is not None else "lazy"
        return (
            f"EvaluatedDesign(objective={self.metrics.objective:.4f}, "
            f"schedule={decoded})"
        )


def evaluate_candidate(
    spec: "DesignSpec",
    compiled: "CompiledSpec",
    scheduler: Optional["ListScheduler"],
    design: "CandidateDesign",
    record_trace: bool = False,
    timings: Optional[StageTimings] = None,
) -> Optional[EvaluatedDesign]:
    """Schedule and price one candidate; ``None`` when it is invalid.

    ``compiled`` picks the kernel: the array core (every runtime
    engine) or the pinned object core (a spec compiled for ``"object"``,
    the reference tests compare against).  Only the object core runs
    ``scheduler``; array callers pass ``None``.

    Deterministic: equal ``(spec, design)`` always produce the same
    outcome, which the evaluation cache and the result store rely on.
    With ``record_trace`` the outcome additionally carries the pass
    trace and metric memo, making it usable as the parent of
    :class:`~repro.engine.delta.DeltaEvaluator` evaluations; the
    metric *values* are identical either way.
    ``timings`` (when given) accumulates per-stage wall time.
    """
    from repro.core.metrics import evaluate_design_delta

    if compiled.use_arrays:
        from repro.core.array_metrics import evaluate_state_delta

        arrays = compiled.arrays
        start = time.perf_counter_ns()
        state = arrays.schedule_design(design, record=record_trace)
        mid = time.perf_counter_ns()
        if timings is not None:
            timings.sched_ns += mid - start
        if not state.success:
            return None
        metrics, memo = evaluate_state_delta(
            arrays, state, spec.future, spec.weights
        )
        if timings is not None:
            timings.metrics_ns += time.perf_counter_ns() - mid
        if not record_trace:
            return EvaluatedDesign(
                design, None, metrics,
                state=state, arrays=arrays, timings=timings,
            )
        return EvaluatedDesign(
            design, None, metrics, trace=state, memo=memo,
            state=state, arrays=arrays, timings=timings,
        )

    assert scheduler is not None, "the object core needs its ListScheduler"
    start = time.perf_counter_ns()
    result = scheduler.try_schedule(
        spec.current,
        design.mapping,
        priorities=design.priorities,
        message_delays=design.message_delays,
        compiled=compiled,
        record_trace=record_trace,
    )
    mid = time.perf_counter_ns()
    if timings is not None:
        timings.sched_ns += mid - start
    if not result.success:
        return None
    metrics, memo = evaluate_design_delta(
        result.schedule, spec.future, spec.weights
    )
    if timings is not None:
        timings.metrics_ns += time.perf_counter_ns() - mid
    if not record_trace:
        return EvaluatedDesign(design, result.schedule, metrics)
    return EvaluatedDesign(
        design, result.schedule, metrics, trace=result.trace, memo=memo
    )
