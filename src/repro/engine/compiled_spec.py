"""Problem compilation: everything derivable from a :class:`DesignSpec` alone.

Every strategy evaluation schedules *one candidate* of the *same
problem*: the application, the frozen base schedule, the horizon and
the default priorities never change inside a search run.  The seed
implementation nevertheless re-derived all of them per candidate inside
``ListScheduler.try_schedule`` -- thousands of times in one SA run.

:class:`CompiledSpec` performs that derivation once, in the spirit of
separating problem *construction* from repeated *solving*:

* the horizon is resolved and every graph period is validated against
  it up front (a per-candidate check before);
* the application is instance-expanded into a
  :class:`repro.sched.jobs.JobTable` (jobs, predecessor counts,
  successor edges, initial ready set);
* the default HCP priorities are computed once;
* the frozen base schedule is kept as a template; per-candidate
  evaluation only pays one ``copy()`` of it;
* the key layout of candidate designs -- the memoization key of the
  evaluation cache and the result store -- is compiled here once, so
  every cache tier agrees on identity; the same packed key is the one
  lowering every scheduling pass reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.model.design_key import KeyLayout
from repro.sched.arrays import ArraySpec, resolve_engine_core
from repro.sched.jobs import JobTable, expand_jobs
from repro.sched.priorities import PriorityMap, hcp_priorities
from repro.sched.schedule import SystemSchedule
from repro.utils.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import DesignSpec
    from repro.core.transformations import CandidateDesign
    from repro.model.application import Application
    from repro.model.architecture import Architecture

class CompiledSpec:
    """Precomputed, reusable form of one :class:`DesignSpec`.

    Instances are immutable in practice: nothing here is mutated after
    construction, so one compiled spec can be shared by an arbitrary
    number of candidate evaluations (each shard of a distributed race
    compiles its own).
    """

    def __init__(self, spec: "DesignSpec", engine_core: str = "array"):
        self.spec = spec
        # The runtime only ever compiles for the array kernel; tests and
        # microbenchmarks pass "object" to reach the pinned object
        # scheduler they compare it against.
        self.engine_core = resolve_engine_core(engine_core)
        self._arrays: Optional[ArraySpec] = None
        self.horizon = spec.effective_horizon()
        for graph in spec.current.graphs:
            if self.horizon % graph.period != 0:
                raise SchedulingError(
                    f"graph {graph.name!r} period {graph.period} does not "
                    f"divide the horizon {self.horizon}"
                )
        self._validate_architecture()
        self.job_table: JobTable = expand_jobs(spec.current, self.horizon)
        self.default_priorities: PriorityMap = hcp_priorities(
            spec.current, spec.architecture.bus
        )
        self._base_template: Optional[SystemSchedule] = spec.base_schedule
        self._compile_signature()

    def _validate_architecture(self) -> None:
        """Guard the spec against architecture/application mismatches.

        Scenario families generate heterogeneous platform variants
        (per-node speeds, variable-length TDMA slots); a WCET table
        referencing a node the architecture does not have -- e.g. an
        application generated for a different variant -- would
        otherwise surface as a confusing mapping failure deep inside
        the search.  The bus/node consistency itself is enforced by
        :class:`~repro.model.architecture.Architecture`; this check
        ties the *application* to the platform once per compilation.
        """
        architecture = self.spec.architecture
        for process in self.spec.current.processes:
            unknown = [n for n in process.wcet if n not in architecture]
            if unknown:
                raise SchedulingError(
                    f"process {process.id!r} allows nodes "
                    f"{sorted(unknown)} that the architecture does not "
                    f"have (nodes: {architecture.node_ids}); was the "
                    f"application generated for a different platform "
                    f"variant?"
                )
        if self.spec.base_schedule is not None:
            base = self.spec.base_schedule
            if base.architecture.node_ids != architecture.node_ids:
                raise SchedulingError(
                    "base schedule was built for architecture nodes "
                    f"{base.architecture.node_ids}, spec has "
                    f"{architecture.node_ids}"
                )

    # ------------------------------------------------------------------
    @property
    def architecture(self) -> "Architecture":
        return self.spec.architecture

    @property
    def application(self) -> "Application":
        return self.spec.current

    @property
    def total_jobs(self) -> int:
        """Process instances one candidate evaluation has to place."""
        return len(self.job_table)

    @property
    def use_arrays(self) -> bool:
        """Whether evaluations of this spec run the array kernel."""
        return self.engine_core == "array"

    @property
    def arrays(self) -> ArraySpec:
        """The structure-of-arrays lowering, built lazily exactly once.

        Available regardless of :attr:`engine_core`, so tests can
        compare both kernels over one compilation.
        """
        if self._arrays is None:
            self._arrays = ArraySpec(self)
        return self._arrays

    @property
    def base_template(self) -> Optional[SystemSchedule]:
        """The frozen base schedule (``None`` for green-field designs).

        Read-only by contract: the delta evaluator copies individual
        node states and the bus out of it when reconstructing a child
        schedule at a checkpoint.
        """
        return self._base_template

    def validate_against(
        self,
        application: "Application",
        base: Optional[SystemSchedule],
        horizon: Optional[int],
    ) -> None:
        """Guard against reusing this compiled spec for another problem.

        The compiled fast paths (list scheduler, initial mapper) ignore
        their ``application``/``base``/``horizon`` arguments in favor of
        the precomputed state, so a mismatch would silently schedule
        the wrong problem; this check turns it into an error.  Shared
        by both call sites so the accepted usages can never diverge.
        """
        if self.application is not application:
            raise SchedulingError(
                "compiled spec was built for application "
                f"{self.application.name!r}, not {application.name!r}"
            )
        if base is not None and base is not self.spec.base_schedule:
            raise SchedulingError(
                "compiled spec was built around a different base schedule"
            )
        if horizon is not None and horizon != self.horizon:
            raise SchedulingError(
                f"requested horizon {horizon} differs from compiled "
                f"horizon {self.horizon}"
            )

    def fresh_schedule(self) -> SystemSchedule:
        """A writable schedule seeded with the frozen reservations.

        This is the only per-candidate setup cost left: one copy of the
        base template (or an empty schedule for green-field designs).
        """
        if self._base_template is not None:
            return self._base_template.copy()
        return SystemSchedule(self.spec.architecture, self.horizon)

    def _compile_signature(self) -> None:
        """The fixed layout :meth:`signature` packs every candidate into.

        Per process, in sorted-id order: its node's index in
        architecture order (int32) and its priority (float64).  Then
        per message, in sorted-id order: its delay (int64).  All
        little-endian, so the key is portable across machines (see
        :mod:`repro.model.design_key`).

        That order is the array core's id order too:
        :class:`~repro.sched.arrays.ArraySpec` numbers processes and
        messages by :attr:`key_layout`'s ``pids`` and ``mids``, so the
        key *is* a candidate's lowering -- the compiled pass reads it
        as it is, and the Python passes unpack it with the layout's
        ``struct``.
        """
        self.key_layout = KeyLayout(self.spec.current, self.spec.architecture)

    def signature(self, design: "CandidateDesign") -> bytes:
        """Identity of ``design`` for memoization: one packed ``bytes``.

        Two candidates with equal mapping, priorities and message
        delays produce byte-identical schedules (the list scheduler is
        deterministic), so their packed form is a sound cache key.  A
        priority or delay the design leaves out packs as the 0 both
        schedulers default it to; ids the spec does not have are
        ignored, as the schedulers ignore them.  Priorities compare as
        float64 bits, so ``-0.0`` and ``0.0`` give different keys (a
        spurious miss, never a wrong hit).

        A design built under an equal layout -- every design a move
        derived in this problem -- already is its key, and is returned
        as it is; only an edge design packs, once (see
        :meth:`CandidateDesign.key_under
        <repro.core.transformations.CandidateDesign.key_under>`).  The
        key is also what every scheduling pass of the array core lowers
        from (see :meth:`_compile_signature`).

        Raises
        ------
        repro.utils.errors.MappingError
            If the mapping leaves a process unmapped.
        """
        return design.key_under(self.key_layout)
