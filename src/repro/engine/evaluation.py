"""The single candidate-evaluation primitive every search loop shares.

``evaluate_candidate`` is the pure function at the bottom of the whole
optimization stack: schedule one :class:`CandidateDesign` with the
compiled problem and price the result with the slide-14 objective.  The
uncached path, the cache-miss path and every shard's engine call
exactly this function, which is what makes cached, uncached and
sharded runs bit-identical.

Under the array core the hot path never leaves the flat representation.
With the compiled pass loaded, a cold evaluation is one C call that
schedules, prices and mixes the packed key (:func:`evaluate_key`);
otherwise (the Python pass, or a recorded one) the pass finishes as an
:class:`~repro.sched.arrays.ArrayRunState` and the metrics are priced
directly on its columns (:mod:`repro.core.array_metrics`).  Either way
the state is dropped -- an outcome keeps its price, not its pass.  The object
:class:`~repro.sched.schedule.SystemSchedule` is re-derived **lazily**:
:attr:`EvaluatedDesign.schedule` re-runs the deterministic pass with
trace columns and decodes it on first access (accepted incumbents,
serialization, verify, figures), while the thousands of rejected
candidates per search never pay for it.

Imports from :mod:`repro.core` are deferred to the calls that need
them: the engine package sits between ``sched`` and ``core`` in the
layer diagram (``core.strategy`` imports the engine), so importing
core modules at module scope would be circular.  A cold compiled
evaluation imports nothing: only binding an objective to the compiled
pass, once per engine, reaches into core.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from repro.sched import native
from repro.sched.arrays import ArrayRunState
from repro.sched.native import NativePricedState
from repro.sched.schedule import SystemSchedule
from repro.sched.trace import ScheduleTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Union
    from repro.core.future import FutureCharacterization
    from repro.core.metrics import DesignMetrics, ObjectiveWeights
    from repro.core.strategy import DesignSpec
    from repro.core.transformations import CandidateDesign
    from repro.engine.compiled_spec import CompiledSpec
    from repro.model.mapping import Mapping
    from repro.sched.arrays import ArraySpec
    from repro.sched.list_scheduler import ListScheduler
    from repro.sched.priorities import PriorityMap


class StageTimings:
    """Nanosecond wall-time buckets of the evaluation pipeline.

    One mutable sink per engine: ``sched_ns`` books each candidate's
    pass plus its price on every path (the one compiled call, or the
    pass and the Python pricing after it), and ``decode_ns`` the lazy
    schedule decodes, so the split of a search run between evaluating
    and decoding is visible in the engine statistics without a
    profiler.  Time recorded here feeds reporting only -- never a
    scheduling decision.
    """

    __slots__ = ("sched_ns", "decode_ns")

    def __init__(self, sched_ns: int = 0, decode_ns: int = 0) -> None:
        self.sched_ns = sched_ns
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

    Under the array core an outcome the engine solved and one a result
    store served have one shape: the design, its metrics and the
    compiled spec, with no schedule and no scheduler state.
    :attr:`schedule` is **lazy**: on first access it re-runs the
    deterministic pass with trace columns against the compiled spec
    and decodes it (a traced outcome decodes its own ``trace``, which
    already has columns).  The decode is cached; a search never asks
    for it (the neighbourhood proposer reads one kernel pass of the
    key), so only results and other on-demand reads pay it.  An
    object-core outcome carries its eager schedule and its compiled
    spec too, so the proposer serves both cores alike.
    """

    __slots__ = (
        "design", "metrics", "trace", "memo",
        "_schedule", "_timings", "_compiled",
    )

    def __init__(
        self,
        design: "CandidateDesign",
        schedule: Optional[SystemSchedule],
        metrics: "DesignMetrics",
        trace: Optional["Union[ScheduleTrace, ArrayRunState]"] = None,
        memo: Optional["Any"] = None,
        timings: Optional[StageTimings] = None,
        compiled: Optional["CompiledSpec"] = None,
    ) -> None:
        if schedule is None and compiled is None:
            raise ValueError(
                "EvaluatedDesign needs a schedule or a compiled spec to "
                "re-derive one against"
            )
        self.design = design
        self.metrics = metrics
        self.trace = trace
        self.memo = memo
        self._schedule = schedule
        self._timings = timings
        self._compiled = compiled

    # ------------------------------------------------------------------
    @property
    def schedule(self) -> SystemSchedule:
        """The object schedule, re-derived on demand.

        Three sources, in order: the eagerly built schedule (object
        core), the columns of a traced array pass, or -- for every
        other array outcome -- a deterministic re-run of the pass
        against the attached compiled spec.
        """
        schedule = self._schedule
        if schedule is None:
            compiled = self._compiled
            assert compiled is not None, "the constructor requires one"
            start = time.perf_counter_ns()
            trace = self.trace
            if isinstance(trace, ArrayRunState):  # recorded: has columns
                schedule = compiled.arrays.decode_schedule(trace)
            else:
                schedule = self._rederive(compiled)
            self._schedule = schedule
            timings = self._timings
            if timings is not None:
                timings.decode_ns += time.perf_counter_ns() - start
        return schedule

    def _rederive(self, compiled: "CompiledSpec") -> SystemSchedule:
        """Re-run the (deterministic) array pass to rebuild the schedule."""
        arrays = compiled.arrays
        state = arrays.schedule_design(
            self.design, record=False, columns=True,
            key=compiled.signature(self.design),
        )
        if not state.success:
            raise ValueError(
                "stored design no longer schedules; the result "
                "store and the compiled spec disagree"
            )
        return arrays.decode_schedule(state)

    @property
    def compiled(self) -> "CompiledSpec":
        """The compiled spec this outcome was evaluated against.

        Outcomes of both cores carry one; the neighbourhood proposer
        schedules the design's key against it.
        """
        compiled = self._compiled
        if compiled is None:
            raise ValueError("this outcome carries no compiled spec")
        return compiled

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


def evaluate_key(
    arrays: "ArraySpec",
    future: "FutureCharacterization",
    weights: "ObjectiveWeights",
    key: bytes,
) -> Optional["DesignMetrics"]:
    """Schedule and price one packed key in one compiled call; ``None``
    when it does not schedule.

    The cold evaluation when the compiled module loaded:
    :meth:`ArraySpec.run_kernel` runs a
    :class:`~repro.sched.native.NativePricedState`, whose metrics equal
    :func:`~repro.core.array_metrics.evaluate_state` on the Python pass
    bit for bit.  The objective is bound to the compiled pass only when
    ``future`` or ``weights`` is not the object the context holds (an
    ``is`` test), once per engine; that is the only step that reaches
    into :mod:`repro.core`.
    """
    context = arrays.kernel_context()
    if context.future is not future or context.weights is not weights:
        from repro.core.array_metrics import bind_objective

        bind_objective(arrays, future, weights)
    st = NativePricedState(context, key)
    arrays.run_kernel(st)
    return st.metrics


def evaluate_candidate(
    spec: "DesignSpec",
    compiled: "CompiledSpec",
    scheduler: Optional["ListScheduler"],
    design: "CandidateDesign",
    record_trace: bool = False,
    timings: Optional[StageTimings] = None,
    key: Optional[bytes] = None,
) -> Optional[EvaluatedDesign]:
    """Schedule and price one candidate; ``None`` when it is invalid.

    ``compiled`` picks the kernel: the array core (every runtime
    engine) or the pinned object core (a spec compiled for ``"object"``,
    the reference tests compare against).  Only the object core runs
    ``scheduler``; array callers pass ``None``.

    Deterministic: equal ``(spec, design)`` always produce the same
    outcome, which the evaluation cache and the result store rely on.
    An array outcome keeps the metrics, not the pass: its scheduler
    state is dropped once priced and the schedule re-derived on first
    access.  With ``record_trace`` the outcome instead carries the
    pass trace and metric memo, making it usable as the parent of
    :class:`~repro.engine.delta.DeltaEvaluator` evaluations; the
    metric *values* are identical either way.
    ``timings`` (when given) books the pass and its price, on every
    path, in ``sched_ns``.
    ``key`` is ``compiled.signature(design)`` when the caller packed it
    already (an engine cache miss); the array core schedules from it,
    and packs one itself when it is ``None``.  An unrecorded
    evaluation with the compiled pass loaded schedules and prices that
    key in one C call.
    """
    if compiled.use_arrays:
        arrays = compiled.arrays
        start = time.perf_counter_ns()
        if key is None:
            key = compiled.signature(design)
        if not record_trace and native.MODULE is not None:
            metrics = evaluate_key(arrays, spec.future, spec.weights, key)
            if timings is not None:
                timings.sched_ns += time.perf_counter_ns() - start
            if metrics is None:
                return None
            return EvaluatedDesign(
                design, None, metrics, None, None, timings, compiled
            )
        from repro.core.array_metrics import evaluate_state_delta

        state = arrays.schedule_design(design, record=record_trace, key=key)
        mid = time.perf_counter_ns()
        if timings is not None:
            timings.sched_ns += mid - start
        if not state.success:
            return None
        metrics, memo = evaluate_state_delta(
            arrays, state, spec.future, spec.weights
        )
        if timings is not None:
            timings.sched_ns += time.perf_counter_ns() - mid
        if not record_trace:
            return EvaluatedDesign(
                design, None, metrics, None, None, timings, compiled
            )
        # A recorded pass always runs the Python loop.
        assert isinstance(state, ArrayRunState)
        return EvaluatedDesign(
            design, None, metrics, state, memo, timings, compiled
        )

    from repro.core.metrics import evaluate_design_delta

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
        timings.sched_ns += time.perf_counter_ns() - mid
    if not record_trace:
        return EvaluatedDesign(
            design, result.schedule, metrics, compiled=compiled
        )
    return EvaluatedDesign(
        design, result.schedule, metrics, trace=result.trace, memo=memo,
        compiled=compiled,
    )
