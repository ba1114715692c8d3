"""Deterministic racing of a strategy portfolio for one shared budget.

Algorithm portfolios hedge: instead of committing the whole evaluation
budget to one search, several configured strategies race for it, and
the best incumbent any of them finds wins.  The
:class:`PortfolioRunner` here races *search programs* (the generator
form every kernel-backed strategy exposes via ``search_program``) in
deterministic lockstep:

* **lockstep rounds** -- each round serves or cuts at most one
  evaluation request per still-running member, in configured member
  order, so member ``m``'s ``k``-th budget decision is slot ``(k, m)``
  of one logical clock.  The interleaving is a pure function of the
  configuration, never of thread or process timing, so seeded
  portfolio results are byte-identical for any racing order;
* **shared budget** -- an optional portfolio-level
  :class:`~repro.search.budget.Budget` (evaluations / wall-clock) is
  charged as requests are granted; a member whose next neighbourhood
  no longer fits is cut via :class:`SharedBudgetExhausted` and finishes
  with its incumbent-so-far.  Members that terminate naturally free
  the remaining budget for the others -- that is the race;
* **in-process or sharded** -- ``shards=0`` races every member over
  one shared :class:`DesignEvaluator` (a design priced for member A is
  a cache hit for member B).  ``shards >= 1`` forks that many worker
  processes (:mod:`repro.search.distributed`), each racing its share of
  the members in the same lockstep rounds, while the parent owns the
  budget -- deciding asks in ``(k, m)`` order and logging each verdict
  -- and the only sqlite writer.  A dead shard's members rerun from
  their seed on a fresh shard, replaying the logged verdicts.
  Designs, objectives and per-member accounting are the same for any
  shard count and any crash;
* **deterministic tie-breaking** -- the winner is the valid member
  result with the strictly smallest objective; exact objective ties
  are broken by the canonical design identity (so the winning design
  does not depend on the racing order), and only identical designs
  fall back to the earliest configured member.  Completion order
  never matters.

Per-member engine attribution: each member's ``DesignResult`` reports
the evaluations charged on its behalf and its own ``SearchStats``;
cache counters are race-level (the whole point of sharing is that
members hit each other's entries) and live on the
:class:`PortfolioResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.engine import EngineConfig, EngineCounters
from repro.search.budget import Budget, BudgetProgress, SharedBudgetExhausted
from repro.search.loop import EvalRequest, execute_request
from repro.utils.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import DesignEvaluator, DesignResult, DesignSpec

#: Crash-loop backstop: a member that dies with its shard more than
#: this many times is marked failed instead of respawning again.
DEFAULT_RESPAWN_LIMIT = 3

#: Wall-clock watchdog of a sharded race, in seconds.
DEFAULT_RACE_TIMEOUT = 600.0


@dataclass
class PortfolioMemberOutcome:
    """One racing member's result and its portfolio accounting."""

    name: str
    index: int
    result: "DesignResult"
    evaluations_served: int = 0
    rounds: int = 0

    @property
    def objective(self) -> float:
        return self.result.objective


@dataclass
class ShardEvent:
    """One coordinator-visible event of a sharded race (reporting only)."""

    kind: str  # start | done | dead | respawn | failed
    shard: int
    member: int = -1
    detail: str = ""
    seconds: float = 0.0


@dataclass
class PortfolioResult:
    """Outcome of one portfolio race.

    ``best`` is the winning member's :class:`DesignResult` (``None``
    when no member found a valid design); engine statistics are
    race-level totals: the shared engine's, or in a sharded race the
    sum over the shard engines plus the parent's store writer.

    The fleet fields are empty or zero when ``shards=0``.
    ``shard_counters`` holds each shard engine's
    :class:`~repro.engine.engine.EngineCounters` (index-aligned with
    ``shard_ids``); ``shard_busy_seconds`` is each shard's CPU time
    (``time.process_time``), the basis of the critical-path speedup
    the benchmarks report.  Counters of shards that died mid-race are
    lost with the process and excluded (noted in ``events``).
    """

    members: List[PortfolioMemberOutcome]
    winner_index: Optional[int] = None
    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    runtime_seconds: float = 0.0
    budget_cut: bool = False
    shards: int = 0
    shard_ids: List[int] = field(default_factory=list)
    shard_counters: List[EngineCounters] = field(default_factory=list)
    shard_busy_seconds: List[float] = field(default_factory=list)
    events: List[ShardEvent] = field(default_factory=list)
    respawns: int = 0

    @property
    def winner(self) -> Optional[PortfolioMemberOutcome]:
        if self.winner_index is None:
            return None
        return self.members[self.winner_index]

    @property
    def best(self) -> Optional["DesignResult"]:
        member = self.winner
        return member.result if member is not None else None

    @property
    def valid(self) -> bool:
        return self.winner_index is not None

    @property
    def objective(self) -> float:
        return self.best.objective if self.best is not None else float("inf")


class PortfolioRunner:
    """Races strategy instances for one shared budget.

    Parameters
    ----------
    members:
        Configured strategy instances exposing
        ``search_program(spec, compiled)`` and ``name`` (every
        kernel-backed strategy does).  Order is the racing order and
        the tie-breaking order.
    budget:
        Portfolio-level budget shared by all members (evaluations and
        wall-clock axes; per-member step caps belong to the members'
        own budgets).  ``None`` lets every member run to its own
        completion.  A wall-clock axis is not replayable, so a sharded
        race rejects it.
    engine:
        Engine settings.  With a sqlite store the whole race shares one
        persistent result store: any member's priced design is served
        warm to the others, and to future races against the same path.
    shards:
        ``0`` races in-process over one shared engine; ``N >= 1`` forks
        N worker processes and assigns members round-robin by index.
    respawn_limit:
        Sharded races: times one member may respawn after shard deaths
        (rerunning from its seed against the race's verdict log) before
        it is marked failed.
    race_timeout:
        Sharded races: wall-clock watchdog; the race aborts (workers
        terminated, ``RuntimeError``) past this many seconds.  ``None``
        disables.
    """

    def __init__(
        self,
        members: Sequence[Any],
        budget: Optional[Budget] = None,
        engine: EngineConfig = EngineConfig(),
        shards: int = 0,
        respawn_limit: int = DEFAULT_RESPAWN_LIMIT,
        race_timeout: Optional[float] = DEFAULT_RACE_TIMEOUT,
    ):
        if not members:
            raise ConfigError("a portfolio needs at least one member")
        if shards < 0:
            raise ConfigError(
                f"shards must be >= 0 (0 races in-process), got {shards!r}"
            )
        budget = budget if budget is not None else Budget()
        if shards and budget.max_seconds is not None:
            raise ConfigError(
                "a sharded race cannot meter a wall-clock budget "
                "deterministically; race it in-process (shards=0)"
            )
        self.members = list(members)
        self.budget = budget
        self.engine = engine
        self.shards = shards
        self.respawn_limit = respawn_limit
        self.race_timeout = race_timeout

    # ------------------------------------------------------------------
    def run(self, spec: "DesignSpec") -> PortfolioResult:
        """Race every member on ``spec``; deterministic winner."""
        started = time.perf_counter()
        if self.shards:
            from repro.search.distributed import _Coordinator

            result = _Coordinator(self, spec).run()
        else:
            result = self._race(spec)
        result.runtime_seconds = time.perf_counter() - started
        return result

    def _race(self, spec: "DesignSpec") -> PortfolioResult:
        """The in-process arm: every member on one shared engine."""
        from repro.core.strategy import DesignEvaluator

        with DesignEvaluator(spec, self.engine) as evaluator:
            budget = _SharedBudget(self.budget)
            race = _Lockstep(spec, self.members, evaluator, budget.grant)
            ledgers = [_MemberLedger(index) for index in range(len(self.members))]
            for ledger in ledgers:
                race.start(ledger)
            while race.programs:
                race.round()
            return _race_result(
                self.members, ledgers, evaluator.counters(), budget.cut
            )


# ----------------------------------------------------------------------
# the pieces both arms share: ledger, budget decision, lockstep round
# ----------------------------------------------------------------------
@dataclass
class _MemberLedger:
    """One member's race accounting: its logical clock and charges."""

    index: int
    k: int = 0  # budget decisions made: the member's logical clock
    charged: int = 0  # evaluations granted against the shared budget
    result: Optional["DesignResult"] = None

    def advance(self, size: int, granted: bool) -> None:
        """Record one budget decision on a ``size``-evaluation request."""
        self.k += 1
        if granted:
            self.charged += size


class _SharedBudget:
    """The race's budget: grants and charges, or cuts, one request."""

    def __init__(self, budget: Budget):
        self.budget = budget
        self.charged = 0
        self.cut = False
        self.started = time.perf_counter()

    def grant(self, ledger: _MemberLedger, size: int, is_moves: bool) -> bool:
        """Grant or cut ``ledger``'s next request and advance its clock.

        Only a move neighbourhood is ever cut (the start evaluation of
        a member always fits).  The clock is read only for a
        wall-clock axis, which sharded races reject.
        """
        seconds = 0.0
        if self.budget.max_seconds is not None:
            seconds = time.perf_counter() - self.started
        granted = not (
            is_moves and _over_budget(self.budget, self.charged, size, seconds)
        )
        if granted:
            self.charged += size
        else:
            self.cut = True
        ledger.advance(size, granted)
        return granted


#: ``decide(ledger, size, is_moves) -> granted``: one budget decision.
_Decide = Callable[[_MemberLedger, int, bool], bool]


class _Lockstep:
    """Lockstep rounds over some members' search programs on one engine.

    ``decide`` makes each budget decision: the in-process race grants
    locally (:meth:`_SharedBudget.grant`), a shard replays a logged
    verdict or asks its parent when the race is metered.  A shard
    hooks :meth:`finish` to report.
    """

    def __init__(
        self,
        spec: "DesignSpec",
        members: Sequence[Any],
        evaluator: "DesignEvaluator",
        decide: _Decide,
    ):
        self.spec = spec
        self.members = members
        self.evaluator = evaluator
        self.decide = decide
        self.ledgers: Dict[int, _MemberLedger] = {}
        self.programs: Dict[int, Generator[EvalRequest, Any, "DesignResult"]] = {}
        self.pending: Dict[int, EvalRequest] = {}

    def start(self, ledger: _MemberLedger) -> None:
        """Start a member's program from its seed up to its first request."""
        member = self.members[ledger.index]
        self.ledgers[ledger.index] = ledger
        self.programs[ledger.index] = member.search_program(
            self.spec, self.evaluator.compiled
        )
        self._send(ledger.index, None)

    def round(self) -> None:
        """Serve or cut each live member's pending request once, in
        member-index order."""
        for m in sorted(self.programs):
            request = self.pending[m]
            if self.decide(
                self.ledgers[m], request.size, request.moves is not None
            ):
                self._send(m, execute_request(self.evaluator, request))
            else:
                self._send(m, None, SharedBudgetExhausted())

    def finish(self, m: int, result: "DesignResult") -> None:
        self.ledgers[m].result = result

    def _send(self, m: int, value: Any, error: Optional[BaseException] = None) -> None:
        program = self.programs[m]
        try:
            if error is None:
                self.pending[m] = program.send(value)
            else:
                self.pending[m] = program.throw(error)
        except StopIteration as ended:
            del self.programs[m]
            self.pending.pop(m, None)
            self.finish(m, ended.value)


def _race_result(
    members: Sequence[Any],
    ledgers: Sequence[_MemberLedger],
    counters: EngineCounters,
    budget_cut: bool,
    **fleet: Any,
) -> PortfolioResult:
    """Fold the member ledgers and engine totals into the race result.

    A member with no result (failed after its respawns) reports an
    invalid placeholder; a valid member reports the evaluations charged
    on its behalf.
    """
    from repro.core.strategy import DesignResult

    names = _unique_names(members)
    outcomes: List[PortfolioMemberOutcome] = []
    for ledger in ledgers:
        name = names[ledger.index]
        result = ledger.result
        if result is None:
            result = DesignResult(name, valid=False)
        elif result.valid and ledger.charged > 0:
            result.evaluations = ledger.charged
        outcomes.append(
            PortfolioMemberOutcome(
                name, ledger.index, result, ledger.charged, ledger.k
            )
        )
    return PortfolioResult(
        members=outcomes,
        winner_index=_pick_winner(outcomes),
        evaluations=counters.evaluations,
        cache_hits=counters.cache_hits,
        cache_misses=counters.cache_misses,
        store_hits=counters.store_hits,
        store_misses=counters.store_misses,
        store_writes=counters.store_writes,
        budget_cut=budget_cut,
        **fleet,
    )


def _over_budget(
    budget: Budget, served: int, request_size: int, seconds: float
) -> bool:
    """Whether serving ``request_size`` more evaluations busts the budget."""
    if (
        budget.max_evaluations is not None
        and served + request_size > budget.max_evaluations
    ):
        return True
    progress = BudgetProgress(evaluations=served, seconds=seconds)
    reason = budget.stop_reason(progress)
    return reason is not None and reason != "budget:steps"


def _pick_winner(members: Sequence[PortfolioMemberOutcome]) -> Optional[int]:
    """Deterministic incumbent tie-breaking.

    Strictly smallest objective wins; exact objective ties are broken
    by the canonical design identity
    (:meth:`DesignResult.design_identity` -- the one definition shared
    with the smoke checks and CLI gates), so the winning *design* does
    not depend on the racing order even when two members tie with
    different designs; only identical designs fall back to the
    earliest member index.
    """
    winner: Optional[int] = None
    for member in members:
        if not member.result.valid:
            continue
        if winner is None or member.objective < members[winner].objective:
            winner = member.index
        elif (
            member.objective == members[winner].objective
            and member.result.design_identity()
            < members[winner].result.design_identity()
        ):
            winner = member.index
    return winner


def _unique_names(members: Sequence[Any]) -> List[str]:
    """Member labels: the strategy name, disambiguated by position."""
    names: List[str] = []
    seen: dict = {}
    for member in members:
        base = getattr(member, "name", type(member).__name__)
        count = seen.get(base, 0)
        seen[base] = count + 1
        names.append(base if count == 0 else f"{base}#{count + 1}")
    return names


# ----------------------------------------------------------------------
# sequential first-valid racing (the modification flow's driver)
# ----------------------------------------------------------------------
def first_valid(
    attempts: Iterable,
    budget: Optional[Budget] = None,
) -> Tuple[Optional[object], int, str]:
    """Run attempt thunks in order until one returns a valid result.

    The sequential sibling of the portfolio race, used by the
    modification flow's cheapest-first subset search: each attempt is a
    zero-argument callable returning an object with a ``valid``
    attribute.  The budget's ``max_steps`` caps the number of attempts
    and ``max_seconds`` the total wall-clock across them.

    Returns ``(result, attempts_made, stop_reason)`` where ``result``
    is the first valid outcome or ``None``, and ``stop_reason`` is
    ``"valid"``, ``"exhausted"`` or the budget reason that cut the
    scan.
    """
    budget = budget if budget is not None else Budget()
    started = time.perf_counter()
    count = 0
    for attempt in attempts:
        progress = BudgetProgress(
            steps=count, seconds=time.perf_counter() - started
        )
        reason = budget.stop_reason(progress)
        if reason is not None:
            return None, count, reason
        result = attempt()
        count += 1
        if getattr(result, "valid", False):
            return result, count, "valid"
    return None, count, "exhausted"
