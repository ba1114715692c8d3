"""Distributed, elastic portfolio racing over sharded search processes.

The in-process :class:`~repro.search.portfolio.PortfolioRunner` races
members in deterministic lockstep on one engine -- pinned, simple, and
single-core.  This module shards the same race across N worker
processes: each shard drives a subset of the members' search programs
against its own :class:`~repro.core.strategy.DesignEvaluator` (array
core, read-only view of the shared sqlite result store),
while the parent coordinator owns the shared racing budget, the steal
protocol and the single read-write store connection.

Protocol summary
----------------
*Members* are the configured strategy instances; every worker holds
the full member list (small config dataclasses) but only *runs* its
assigned subset.  Workers talk to the parent over one duplex pipe
each:

* ``ask`` / ``verdict`` -- in *metered* races (a shared budget with an
  evaluation or wall-clock axis) every non-bookkeeping request is
  granted or cut by the parent before it is served.
* ``paused`` -- a member cut for migration: the worker throws
  :class:`~repro.search.budget.StealRequested` into the program at a
  move-evaluation yield, catches
  :class:`~repro.search.checkpoint.MemberPaused` and ships the
  :class:`~repro.search.checkpoint.MemberCheckpoint` (serialized once,
  at ship time).  The parent reassigns the member to the target shard,
  which resumes it byte-identically (the pinned cut+resume contract).
* ``checkpoint`` -- the same cut, applied locally: every
  ``checkpoint_every`` charged evaluations the worker pauses a member,
  ships the checkpoint to the parent (the respawn baseline) and
  resumes it in place; the resume's re-evaluations are warm cache hits
  served as uncharged ``bookkeeping`` requests.
* ``done`` / ``idle`` / ``rows`` / ``final`` -- member results, shard
  starvation (elastic work-stealing trigger), drained store rows for
  the parent's single writer, and end-of-race engine counters.

Worker death is detected through process sentinels: a dead shard's
running members respawn from their last shipped checkpoint on a fresh
replacement worker, with every evaluation charged since that
checkpoint refunded to the shared budget (conservation stays exact).

Determinism
-----------
Member trajectories are invariant under cutting: a steal, checkpoint
or respawn replays the member's own deterministic continuation, so in
a *free* race (no binding shared evaluation/wall budget) the final
member results -- and therefore the winner, picked by the same
:func:`~repro.search.portfolio._pick_winner` tie-breaking -- are
byte-identical to the lockstep reference for any shard count, any
steal pattern and any worker churn.  With a binding shared evaluation
budget, *replay* mode reproduces the lockstep charge order exactly via
a logical budget clock: member ``m``'s ``k``-th budget decision is
made at global slot ``(k, m)``, the lexicographic order the lockstep
rounds produce, so the budget-cut trajectory matches lockstep
byte-for-byte when no churn displaces charges.  Binding budget *plus*
churn guarantees exact budget conservation but not byte-identity
(refunded work is re-charged later in the global order); DESIGN.md
documents the scope honestly.  ``elastic`` mode drops the ordering for
arrival-order grants -- wall-clock budgets and timing-driven stealing,
reproducible only in aggregate.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.engine.engine import EngineConfig, EngineCounters
from repro.search.budget import Budget, SharedBudgetExhausted, StealRequested
from repro.search.checkpoint import MemberCheckpoint, MemberPaused
from repro.search.loop import EvalRequest, execute_request
from repro.search.portfolio import (
    PortfolioMemberOutcome,
    PortfolioResult,
    _over_budget,
    _pick_winner,
    _unique_names,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.core.strategy import DesignResult, DesignSpec

#: Charged evaluations a member runs between periodic checkpoints.
DEFAULT_CHECKPOINT_EVERY = 256

#: Crash-loop backstop: a member that dies with its shard more than
#: this many times is marked failed instead of respawning again.
DEFAULT_RESPAWN_LIMIT = 3


@dataclass
class ShardEvent:
    """One coordinator-visible race event (reporting only)."""

    kind: str  # start | assign | steal | checkpoint | done | dead | respawn | add | remove | stop
    shard: int
    member: int = -1
    detail: str = ""
    seconds: float = 0.0


@dataclass
class DistributedPortfolioResult(PortfolioResult):
    """A :class:`PortfolioResult` plus the fleet-level accounting.

    ``shard_counters`` holds each shard engine's
    :class:`~repro.engine.engine.EngineCounters` (index-aligned with
    ``shard_ids``); the inherited portfolio-level totals are their
    fleet-wide sum (plus the parent's store-writer counters).
    ``shard_busy_seconds`` is each shard's CPU time
    (``time.process_time``), the basis of the critical-path speedup
    the benchmark reports.  Counters of shards killed mid-race are
    lost with the process and excluded (noted in ``events``).
    """

    shards: int = 0
    mode: str = "replay"
    shard_ids: List[int] = field(default_factory=list)
    shard_counters: List[EngineCounters] = field(default_factory=list)
    shard_busy_seconds: List[float] = field(default_factory=list)
    events: List[ShardEvent] = field(default_factory=list)
    respawns: int = 0


def _zero_counters() -> EngineCounters:
    return EngineCounters(0, 0, 0)


# ======================================================================
# shard worker
# ======================================================================
def _shard_main(
    shard_id: int,
    conn: "Connection",
    spec: "DesignSpec",
    members: Sequence[Any],
    assigns: List[Tuple[int, Optional[str], int, int, Optional[int]]],
    cfg: Dict[str, Any],
) -> None:
    """One shard process: lockstep-serve assigned members, obey the parent.

    ``assigns`` rows are ``(member, ckpt_json, k0, charged0, steal_at)``.
    """
    from repro.core.strategy import DesignEvaluator

    busy0 = time.process_time()
    evaluator = DesignEvaluator(spec, cfg["engine"], store_read_only=True)
    metered: bool = cfg["metered"]
    ckpt_every: int = cfg["checkpoint_every"]

    programs: Dict[int, Generator] = {}
    pending: Dict[int, EvalRequest] = {}
    k: Dict[int, int] = {}
    charged: Dict[int, int] = {}
    since_ckpt: Dict[int, int] = {}
    steal_at: Dict[int, Optional[int]] = {}
    steal_now: Set[int] = set()
    stop = False
    idle_sent = False

    def ship_rows() -> None:
        rows = evaluator.drain_store_rows()
        if rows:
            conn.send(("rows", shard_id, rows))

    def finish(m: int, result: "DesignResult") -> None:
        programs.pop(m, None)
        pending.pop(m, None)
        conn.send(("done", m, result, k.get(m, 0), charged.get(m, 0)))

    def start_member(
        m: int, ckpt_json: Optional[str], k0: int, charged0: int, at: Optional[int]
    ) -> None:
        k[m] = k0
        charged[m] = charged0
        since_ckpt[m] = 0
        steal_at[m] = at
        strategy = members[m]
        if ckpt_json is None:
            prog = strategy.search_program(spec, evaluator.compiled)
        else:
            wire = MemberCheckpoint.from_json(ckpt_json)
            prog = strategy.search_program(spec, evaluator.compiled, resume=wire)
        try:
            first = next(prog)
        except StopIteration as ended:
            finish(m, ended.value)
            return
        programs[m] = prog
        pending[m] = first

    def pause_member(m: int) -> None:
        """Cut ``m`` at its pending move request and ship its checkpoint."""
        prog = programs.pop(m)
        pending.pop(m)
        steal_at[m] = None
        steal_now.discard(m)
        try:
            prog.throw(StealRequested())
        except MemberPaused as paused:
            conn.send(("paused", m, paused.checkpoint.to_json(), k[m], charged[m]))
        except StopIteration as ended:  # pragma: no cover - defensive
            finish(m, ended.value)

    def checkpoint_member(m: int) -> None:
        """Local cut + resume: ship a respawn baseline, keep running."""
        prog = programs[m]
        try:
            prog.throw(StealRequested())
            return  # pragma: no cover - defensive (cut always pauses)
        except MemberPaused as paused:
            payload = paused.checkpoint.to_json()
        conn.send(("checkpoint", m, payload, k[m], charged[m]))
        since_ckpt[m] = 0
        # Resume from the deserialized wire form -- exactly what a
        # migrated shard would run, so this path exercises the same
        # contract.  The bookkeeping prefix re-evaluates the stored
        # designs (warm cache hits) and is never charged.
        wire = MemberCheckpoint.from_json(payload)
        prog2 = members[m].search_program(spec, evaluator.compiled, resume=wire)
        try:
            request = next(prog2)
            while request.bookkeeping:
                request = prog2.send(execute_request(evaluator, request))
        except StopIteration as ended:  # pragma: no cover - defensive
            finish(m, ended.value)
            return
        programs[m] = prog2
        pending[m] = request

    def serve(m: int, request: EvalRequest) -> None:
        results = execute_request(evaluator, request)
        try:
            pending[m] = programs[m].send(results)
        except StopIteration as ended:
            finish(m, ended.value)

    def handle(msg: Tuple[Any, ...]) -> None:
        nonlocal stop
        if msg[0] == "assign":
            _, m, ckpt_json, k0, charged0, at = msg
            start_member(m, ckpt_json, k0, charged0, at)
        elif msg[0] == "steal":
            steal_now.add(msg[1])
        elif msg[0] == "stop":
            stop = True

    def await_verdict(m: int, slot: int) -> str:
        """Block for ``m``'s verdict; service other traffic meanwhile."""
        while True:
            msg = conn.recv()
            if msg[0] == "verdict" and msg[1] == m and msg[2] == slot:
                return msg[3]
            handle(msg)

    for row in assigns:
        start_member(*row)

    while True:
        while conn.poll():
            handle(conn.recv())
        if stop:
            break
        if not programs:
            if not idle_sent:
                conn.send(("idle", shard_id))
                idle_sent = True
            handle(conn.recv())
            continue
        idle_sent = False

        # One local lockstep round: serve each live member once, in
        # member-index order (the racing order within the shard).
        for m in sorted(programs):
            if m not in programs:
                continue
            request = pending[m]
            resumable = bool(getattr(members[m], "resumable", False))
            if request.moves is not None and resumable:
                at = steal_at.get(m)
                if m in steal_now or (at is not None and k[m] >= at):
                    pause_member(m)
                    continue
                if ckpt_every and since_ckpt[m] >= ckpt_every:
                    checkpoint_member(m)
                    if m not in programs:
                        continue
                    request = pending[m]
            if request.bookkeeping:
                serve(m, request)
                continue
            if metered:
                conn.send(("ask", m, k[m], request.size, request.moves is not None))
                verdict = await_verdict(m, k[m])
                k[m] += 1
                if verdict == "cut":
                    try:
                        pending[m] = programs[m].throw(SharedBudgetExhausted())
                    except StopIteration as ended:
                        finish(m, ended.value)
                    continue
            else:
                k[m] += 1
            charged[m] += request.size
            since_ckpt[m] += request.size
            serve(m, request)
        ship_rows()

    ship_rows()
    counters = evaluator.counters()
    busy = time.process_time() - busy0
    evaluator.close()
    conn.send(("final", shard_id, counters, busy))
    conn.close()

# ======================================================================
# parent coordinator
# ======================================================================
@dataclass
class _MemberState:
    """The parent's ledger for one racing member."""

    index: int
    resumable: bool
    owner: int
    status: str = "running"  # running | done | failed
    k: int = 0  # next decision slot (the logical budget clock)
    charged: int = 0
    ckpt: Optional[str] = None
    ckpt_k: int = 0
    ckpt_charged: int = 0
    result: Optional["DesignResult"] = None
    respawns: int = 0
    steal_to: Optional[int] = None  # dynamic-steal destination
    schedule: List[dict] = field(default_factory=list)  # pending steal entries


@dataclass
class _ShardHandle:
    """The parent's handle on one worker process."""

    id: int
    proc: Any
    conn: "Connection"
    alive: bool = True
    removing: bool = False
    members: Set[int] = field(default_factory=set)
    counters: Optional[EngineCounters] = None
    busy_seconds: float = 0.0


class DistributedPortfolioRunner:
    """Races a strategy portfolio across sharded worker processes.

    Construction mirrors :class:`~repro.search.portfolio.PortfolioRunner`
    (same members, budget and engine config) plus the distribution knobs:

    Parameters
    ----------
    shards:
        Worker process count.  Members are assigned round-robin by
        index; shards left without members steal work (elastic mode)
        or idle until assigned.
    mode:
        ``"replay"`` (default) -- deterministic: budget decisions in
        lockstep logical order, steals only from ``steal_schedule``,
        wall-clock budgets rejected.  ``"elastic"`` -- arrival-order
        decisions, wall-clock budgets allowed, idle shards steal work
        dynamically, ``elastic_plan`` churn applied.
    steal_schedule:
        Deterministic steal events: ``{"member": m, "at": k, "to": s}``
        cuts member ``m`` at its first move request once its logical
        clock reaches ``k`` and resumes it on shard ``s`` (``"to"``
        optional in elastic mode: least-loaded shard).
    elastic_plan:
        Elastic-mode churn events, applied when the ``n``-th member
        finishes: ``{"after_done": n, "action": "add"}`` spawns a
        fresh worker, ``{"after_done": n, "action": "remove",
        "shard": s}`` drains and stops shard ``s`` gracefully,
        ``{"after_done": n, "action": "kill", "shard": s}`` kills it
        outright (members respawn from their last checkpoints).
    checkpoint_every:
        Charged evaluations a member runs between periodic checkpoint
        ships (``0`` disables; the respawn baseline is then only ever
        a steal checkpoint).
    respawn_limit:
        Times one member may respawn after shard deaths before it is
        marked failed.
    race_timeout:
        Wall-clock watchdog: the race aborts (workers terminated,
        ``RuntimeError``) if it exceeds this many seconds.  ``None``
        disables.
    """

    def __init__(
        self,
        members: Sequence[Any],
        budget: Optional[Budget] = None,
        shards: int = 2,
        mode: str = "replay",
        engine: EngineConfig = EngineConfig(),
        steal_schedule: Optional[Sequence[dict]] = None,
        elastic_plan: Optional[Sequence[dict]] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        respawn_limit: int = DEFAULT_RESPAWN_LIMIT,
        race_timeout: Optional[float] = 600.0,
    ):
        if not members:
            raise ValueError("a portfolio needs at least one member")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if mode not in ("replay", "elastic"):
            raise ValueError(f"unknown mode {mode!r} (replay or elastic)")
        budget_ = budget if budget is not None else Budget()
        if mode == "replay":
            if budget_.max_seconds is not None:
                raise ValueError(
                    "replay mode cannot meter wall-clock budgets "
                    "deterministically; use elastic mode for max_seconds"
                )
            if elastic_plan:
                raise ValueError(
                    "elastic_plan requires elastic mode; replay-mode churn "
                    "is expressed as a steal_schedule"
                )
        for entry in steal_schedule or ():
            if "member" not in entry or "at" not in entry:
                raise ValueError(f"steal_schedule entry needs member/at: {entry}")
            if mode == "replay" and "to" not in entry:
                raise ValueError(f"replay steal_schedule entry needs 'to': {entry}")
        for entry in elastic_plan or ():
            if "after_done" not in entry or entry.get("action") not in (
                "add", "remove", "kill",
            ):
                raise ValueError(f"bad elastic_plan entry: {entry}")
        self.members = list(members)
        self.budget = budget_
        self.shards = shards
        self.mode = mode
        self.engine = engine
        self.steal_schedule = [dict(e) for e in (steal_schedule or ())]
        self.elastic_plan = sorted(
            (dict(e) for e in (elastic_plan or ())), key=lambda e: e["after_done"]
        )
        self.checkpoint_every = checkpoint_every
        self.respawn_limit = respawn_limit
        self.race_timeout = race_timeout

    # ------------------------------------------------------------------
    @property
    def _metered(self) -> bool:
        """Whether budget decisions gate individual requests."""
        return (
            self.budget.max_evaluations is not None
            or self.budget.max_seconds is not None
        )

    def run(self, spec: "DesignSpec") -> DistributedPortfolioResult:
        """Race every member on ``spec`` across the shard fleet."""
        coordinator = _Coordinator(self, spec)
        return coordinator.run()


class _Coordinator:
    """One race's parent-side state machine (single-use)."""

    def __init__(self, runner: DistributedPortfolioRunner, spec: "DesignSpec"):
        self.runner = runner
        self.spec = spec
        self.names = _unique_names(runner.members)
        self.ctx = mp.get_context("fork")
        self.states: List[_MemberState] = []
        self.shards: Dict[int, _ShardHandle] = {}
        self.next_shard_id = 0
        self.pending_asks: Dict[int, Tuple[int, int, bool]] = {}
        self.total_charged = 0
        self.budget_cut = False
        self.done_count = 0
        self.respawns = 0
        self.events: List[ShardEvent] = []
        self.plan = list(runner.elastic_plan)
        self.budgetv: Budget = runner.budget
        self.started = 0.0
        self.evaluator: Optional[Any] = None  # the rw store writer

    # -- helpers -------------------------------------------------------
    def _elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _event(self, kind: str, shard: int, member: int = -1, detail: str = "") -> None:
        self.events.append(
            ShardEvent(kind, shard, member, detail, round(self._elapsed(), 6))
        )

    def _worker_cfg(self) -> Dict[str, Any]:
        runner = self.runner
        return {
            "engine": runner.engine,
            "metered": runner._metered,
            "checkpoint_every": runner.checkpoint_every,
        }

    def _spawn(
        self, assigns: List[Tuple[int, Optional[str], int, int, Optional[int]]]
    ) -> _ShardHandle:
        shard_id = self.next_shard_id
        self.next_shard_id += 1
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_shard_main,
            args=(
                shard_id, child_conn, self.spec, self.runner.members,
                assigns, self._worker_cfg(),
            ),
            daemon=True,
        )
        # Freeze the heap across the fork: the worker inherits the
        # whole parent heap (caller state, earlier results) copy-on-
        # write, and its first full gc pass would otherwise fault in
        # every inherited page just to scan refcounts -- system CPU
        # billed to the shard's busy time.  Frozen objects are exempt
        # from the child's collector; the parent unfreezes right away.
        gc.freeze()
        try:
            proc.start()
        finally:
            gc.unfreeze()
        child_conn.close()
        handle = _ShardHandle(
            id=shard_id, proc=proc, conn=parent_conn,
            members={m for m, *_ in assigns},
        )
        self.shards[shard_id] = handle
        self._event("start", shard_id, detail=f"members={sorted(handle.members)}")
        return handle

    def _next_steal_at(self, member: int) -> Optional[int]:
        entries = self.states[member].schedule
        return entries[0]["at"] if entries else None

    def _assign(
        self, shard: _ShardHandle, state: _MemberState, ckpt: Optional[str]
    ) -> None:
        state.owner = shard.id
        shard.members.add(state.index)
        shard.conn.send((
            "assign", state.index, ckpt, state.k, state.charged,
            self._next_steal_at(state.index),
        ))
        self._event("assign", shard.id, state.index)

    def _least_loaded(self, exclude: Set[int] = frozenset()) -> Optional[_ShardHandle]:
        candidates = [
            s for s in self.shards.values()
            if s.alive and not s.removing and s.id not in exclude
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (len(s.members), s.id))

    # -- message handling ----------------------------------------------
    def _handle(self, shard: _ShardHandle, msg: Tuple[Any, ...]) -> None:
        kind = msg[0]
        if kind == "ask":
            _, m, slot, size, is_moves = msg
            self.pending_asks[m] = (slot, size, is_moves)
            if self.runner.mode == "elastic":
                self._decide(self.states[m])
        elif kind == "done":
            _, m, result, k, charged = msg
            state = self.states[m]
            state.status = "done"
            state.result = result
            state.k = k
            if not self.runner._metered:
                self.total_charged += charged - state.charged
                state.charged = charged
            shard.members.discard(m)
            self.pending_asks.pop(m, None)
            self._event("done", shard.id, m)
            self.done_count += 1
            self._apply_plan()
        elif kind == "paused":
            _, m, ckpt, k, charged = msg
            state = self.states[m]
            state.ckpt = ckpt
            state.ckpt_k = state.k = k
            if not self.runner._metered:
                self.total_charged += charged - state.charged
                state.charged = charged
            state.ckpt_charged = state.charged
            shard.members.discard(m)
            self._migrate(shard, state)
        elif kind == "checkpoint":
            _, m, ckpt, k, charged = msg
            state = self.states[m]
            state.ckpt = ckpt
            state.ckpt_k = k
            if not self.runner._metered:
                self.total_charged += charged - state.charged
                state.charged = charged
            state.ckpt_charged = charged
            self._event("checkpoint", shard.id, m)
        elif kind == "idle":
            self._on_idle(shard)
        elif kind == "rows":
            if self.evaluator is not None:
                self.evaluator.absorb_store_rows(msg[2])
        elif kind == "final":
            _, _, counters, busy = msg
            shard.counters = counters
            shard.busy_seconds = busy

    def _migrate(self, source: _ShardHandle, state: _MemberState) -> None:
        """Reassign a paused member to its steal destination."""
        target: Optional[_ShardHandle] = None
        if state.steal_to is not None:
            target = self.shards.get(state.steal_to)
            state.steal_to = None
        elif state.schedule and state.ckpt_k >= state.schedule[0]["at"]:
            entry = state.schedule.pop(0)
            if "to" in entry:
                target = self.shards.get(entry["to"])
        if target is None or not target.alive or target.removing:
            target = self._least_loaded(exclude={source.id})
        if target is None:  # pragma: no cover - defensive (source stays alive)
            target = source
        self._event("steal", target.id, state.index, detail=f"from={source.id}")
        self._assign(target, state, state.ckpt)

    def _on_idle(self, shard: _ShardHandle) -> None:
        """A shard ran out of members: stop it if removing, else steal."""
        if shard.removing and not shard.members:
            shard.conn.send(("stop",))
            shard.removing = False
            self._event("remove", shard.id)
            return
        if self.runner.mode != "elastic" or shard.removing:
            return
        victims = [
            s for s in self.shards.values()
            if s.alive and s.id != shard.id and len(s.members) >= 2
        ]
        if not victims:
            return
        victim = max(victims, key=lambda s: (len(s.members), -s.id))
        live = [
            m for m in sorted(victim.members)
            if self.states[m].status == "running"
            and self.states[m].resumable
            and self.states[m].steal_to is None
        ]
        if not live:
            return
        self.states[live[0]].steal_to = shard.id
        victim.conn.send(("steal", live[0]))

    # -- budget decisions ----------------------------------------------
    def _decide(self, state: _MemberState) -> None:
        ask = self.pending_asks.get(state.index)
        if ask is None or ask[0] != state.k:
            return
        slot, size, is_moves = self.pending_asks.pop(state.index)
        seconds = self._elapsed() if self.runner.mode == "elastic" else 0.0
        if is_moves and _over_budget(self.budgetv, self.total_charged, size, seconds):
            verdict = "cut"
            self.budget_cut = True
        else:
            verdict = "grant"
            self.total_charged += size
            state.charged += size
        state.k += 1
        self.shards[state.owner].conn.send(("verdict", state.index, slot, verdict))

    def _drain_decisions(self) -> None:
        """Replay mode: decide asks in global (k, member) lockstep order."""
        if self.runner.mode != "replay":
            return
        while True:
            live = [s for s in self.states if s.status == "running"]
            if not live:
                return
            head = min(live, key=lambda s: (s.k, s.index))
            ask = self.pending_asks.get(head.index)
            if ask is None or ask[0] != head.k:
                return
            self._decide(head)

    # -- churn and death -----------------------------------------------
    def _apply_plan(self) -> None:
        while self.plan and self.plan[0]["after_done"] <= self.done_count:
            entry = self.plan.pop(0)
            action = entry["action"]
            if action == "add":
                handle = self._spawn([])
                self._event("add", handle.id)
            elif action in ("remove", "kill"):
                shard = self.shards.get(entry.get("shard", -1))
                if shard is None or not shard.alive:
                    continue
                if action == "kill":
                    shard.proc.kill()
                    # death handling respawns its members
                else:
                    shard.removing = True
                    for m in sorted(shard.members):
                        state = self.states[m]
                        if state.status == "running" and state.resumable:
                            state.steal_to = None
                            shard.conn.send(("steal", m))
                    if not shard.members:
                        shard.conn.send(("stop",))
                        shard.removing = False
                        self._event("remove", shard.id)

    def _on_death(self, shard: _ShardHandle) -> None:
        """A worker died without its final message: respawn its members."""
        # Drain whatever it managed to send first (checkpoints matter).
        try:
            while shard.conn.poll():
                self._handle(shard, shard.conn.recv())
        except (EOFError, OSError):
            pass
        shard.alive = False
        shard.conn.close()
        shard.proc.join(timeout=5.0)
        if shard.counters is not None and not shard.members:
            return  # clean exit: the final message beat the sentinel
        self._event("dead", shard.id, detail=f"members={sorted(shard.members)}")
        orphans = [
            self.states[m] for m in sorted(shard.members)
            if self.states[m].status == "running"
        ]
        shard.members.clear()
        if not orphans:
            return
        assigns: List[Tuple[int, Optional[str], int, int, Optional[int]]] = []
        for state in orphans:
            self.pending_asks.pop(state.index, None)
            # Refund everything charged since the respawn baseline --
            # that work died with the shard and will be re-charged as
            # the resumed member replays it.
            self.total_charged -= state.charged - state.ckpt_charged
            state.charged = state.ckpt_charged
            state.k = state.ckpt_k
            state.respawns += 1
            self.respawns += 1
            if state.respawns > self.runner.respawn_limit:
                state.status = "failed"
                self._event("failed", shard.id, state.index,
                            detail="respawn limit")
                continue
            assigns.append((
                state.index, state.ckpt, state.k, state.charged,
                self._next_steal_at(state.index),
            ))
        if not assigns:
            return
        replacement = self._spawn(assigns)
        for m, *_ in assigns:
            self.states[m].owner = replacement.id
            self._event("respawn", replacement.id, m)

    # -- main loop ------------------------------------------------------
    def run(self) -> DistributedPortfolioResult:
        from multiprocessing.connection import wait as mpwait

        runner = self.runner
        self.started = time.perf_counter()

        # Seed the member ledgers; pre-split the steal schedule.
        for index, member in enumerate(runner.members):
            self.states.append(_MemberState(
                index=index,
                resumable=bool(getattr(member, "resumable", False)),
                owner=-1,
            ))
        for entry in runner.steal_schedule:
            m = entry["member"]
            if 0 <= m < len(self.states) and self.states[m].resumable:
                self.states[m].schedule.append(dict(entry))
        for state in self.states:
            state.schedule.sort(key=lambda e: e["at"])

        # Round-robin initial assignment, then workers, then the store
        # writer (opened only after forking so no sqlite handle crosses
        # the fork).
        initial: Dict[int, List[Tuple[int, Optional[str], int, int, Optional[int]]]] = {
            s: [] for s in range(runner.shards)
        }
        for index in range(len(runner.members)):
            initial[index % runner.shards].append(
                (index, None, 0, 0, self._next_steal_at(index))
            )
        for s in range(runner.shards):
            handle = self._spawn(initial[s])
            for index, *_ in initial[s]:
                self.states[index].owner = handle.id
        if runner.engine.persistent:
            from repro.core.strategy import DesignEvaluator

            self.evaluator = DesignEvaluator(self.spec, runner.engine)

        try:
            self._loop(mpwait)
            outcomes = self._finalize(mpwait)
        finally:
            for shard in self.shards.values():
                if shard.proc.is_alive():
                    shard.proc.terminate()
                shard.proc.join(timeout=5.0)
            if self.evaluator is not None:
                self.evaluator.close()

        totals = _zero_counters()
        shard_ids: List[int] = []
        shard_counters: List[EngineCounters] = []
        shard_busy: List[float] = []
        for shard in sorted(self.shards.values(), key=lambda s: s.id):
            if shard.counters is None:
                continue
            shard_ids.append(shard.id)
            shard_counters.append(shard.counters)
            shard_busy.append(shard.busy_seconds)
            totals = totals + shard.counters
        if self.evaluator is not None:
            totals = totals + self.evaluator.counters()

        result = DistributedPortfolioResult(
            members=outcomes,
            evaluations=totals.evaluations,
            cache_hits=totals.cache_hits,
            cache_misses=totals.cache_misses,
            store_hits=totals.store_hits,
            store_misses=totals.store_misses,
            store_writes=totals.store_writes,
            budget_cut=self.budget_cut,
            shards=runner.shards,
            mode=runner.mode,
            shard_ids=shard_ids,
            shard_counters=shard_counters,
            shard_busy_seconds=shard_busy,
            events=self.events,
            respawns=self.respawns,
        )
        result.winner_index = _pick_winner(result.members)
        result.runtime_seconds = time.perf_counter() - self.started
        return result

    def _loop(self, mpwait: Any) -> None:
        while any(s.status == "running" for s in self.states):
            if (
                self.runner.race_timeout is not None
                and self._elapsed() > self.runner.race_timeout
            ):
                raise RuntimeError(
                    f"distributed race exceeded {self.runner.race_timeout}s"
                )
            sources: Dict[Any, _ShardHandle] = {}
            for shard in self.shards.values():
                if shard.alive:
                    sources[shard.conn] = shard
                    sources[shard.proc.sentinel] = shard
            if not sources:  # pragma: no cover - defensive
                raise RuntimeError("all shards died; no members can finish")
            for ready in mpwait(list(sources), timeout=1.0):
                shard = sources[ready]
                if not shard.alive:
                    continue
                if ready is shard.conn:
                    try:
                        while shard.conn.poll():
                            self._handle(shard, shard.conn.recv())
                    except (EOFError, OSError):
                        self._on_death(shard)
                elif not shard.proc.is_alive():
                    if shard.counters is None:
                        self._on_death(shard)
                    else:
                        shard.alive = False
            self._drain_decisions()

    def _finalize(self, mpwait: Any) -> List[PortfolioMemberOutcome]:
        """Stop the fleet, collect finals, build member outcomes."""
        for shard in self.shards.values():
            if shard.alive and shard.counters is None:
                try:
                    shard.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.perf_counter() + 30.0
        while (
            any(s.alive and s.counters is None for s in self.shards.values())
            and time.perf_counter() < deadline
        ):
            sources = {
                s.conn: s
                for s in self.shards.values()
                if s.alive and s.counters is None
            }
            for ready in mpwait(list(sources), timeout=1.0):
                shard = sources[ready]
                try:
                    while shard.conn.poll():
                        self._handle(shard, shard.conn.recv())
                except (EOFError, OSError):
                    shard.alive = False
                if shard.counters is not None:
                    shard.alive = False

        outcomes: List[PortfolioMemberOutcome] = []
        for state in self.states:
            result = state.result
            if result is None:  # failed member: an invalid placeholder
                from repro.core.strategy import DesignResult

                result = DesignResult(self.names[state.index], valid=False)
            outcome = PortfolioMemberOutcome(
                name=self.names[state.index],
                index=state.index,
                result=result,
                evaluations_served=state.charged,
                rounds=state.k,
            )
            if result.valid and state.charged > 0:
                result.evaluations = state.charged
            outcomes.append(outcome)
        return outcomes
