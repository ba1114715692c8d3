"""The sharded arm of the portfolio race: forked workers and their parent.

:class:`~repro.search.portfolio.PortfolioRunner` with ``shards >= 1``
runs here.  Each shard process drives its share of the members' search
programs in the same lockstep rounds as the in-process race
(:class:`~repro.search.portfolio._Lockstep`), against its own
:class:`~repro.engine.engine.EvaluationEngine` (a read-only view of
the shared sqlite result store), while the parent coordinator
owns the shared racing budget and the single read-write store
connection.

Protocol summary
----------------
*Members* are the configured strategy instances; every worker holds
the full member list (small config dataclasses) but only *runs* its
assigned subset, round-robin by index.  Workers talk to the parent
over one duplex pipe each:

* ``ask`` / verdict -- in *metered* races (a shared evaluation budget)
  every request is granted or cut by the parent before it is served.
  A shard has at most one ask in flight, and the parent's reply is the
  bare verdict (``True`` grants).  The parent logs every verdict it
  sends, per member.
* ``done`` / ``rows`` / ``final`` -- member results, drained store rows
  for the parent's single writer, and end-of-race engine counters.  A
  worker sends ``final`` and exits once its last member is done.

Worker death is detected through process sentinels: a dead shard's
running members respawn on a fresh replacement worker and rerun from
their seed.  The replacement answers each replayed budget decision
from the parent's verdict log -- nothing is asked or charged again --
so the member reaches the state it died in, and asks the parent anew
only past the end of its log.

Determinism
-----------
A search program is a deterministic function of its seed, its
budget verdicts and the engine's answers, so a replayed member
retraces its own trajectory.  The parent decides asks in the
lockstep's logical order: member ``m``'s ``k``-th budget decision is
made at global slot ``(k, m)``.  Member results -- and the winner --
therefore equal the in-process race's for any shard count and any
crash, with or without a shared evaluation budget.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.engine import EngineConfig, EngineCounters, EvaluationEngine
from repro.engine.store import make_store
from repro.search.portfolio import (
    PortfolioResult,
    ShardEvent,
    _Lockstep,
    _MemberLedger,
    _race_result,
    _SharedBudget,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.core.strategy import DesignResult, DesignSpec
    from repro.search.portfolio import PortfolioRunner

#: One member handed to a worker: ``(member, verdicts to replay)``.
_Assign = Tuple[int, List[bool]]


# ======================================================================
# shard worker
# ======================================================================
class _ShardRace(_Lockstep):
    """A shard's lockstep rounds: replays or asks verdicts, reports."""

    def __init__(
        self,
        spec: "DesignSpec",
        members: Sequence[Any],
        engine: EvaluationEngine,
        conn: "Connection",
        metered: bool,
        logs: Dict[int, List[bool]],
    ):
        super().__init__(spec, members, engine, self._ask)
        self.conn = conn
        self.metered = metered
        self.logs = logs

    def _ask(self, ledger: _MemberLedger, size: int, is_moves: bool) -> bool:
        """Replay a logged verdict; past the log, the parent decides
        metered requests and free ones are granted."""
        log = self.logs[ledger.index]
        if ledger.k < len(log):
            granted = log[ledger.k]
        elif self.metered:
            self.conn.send(("ask", ledger.index, ledger.k, size, is_moves))
            granted = self.conn.recv()
        else:
            granted = True
        ledger.advance(size, granted)
        return granted

    def finish(self, m: int, result: "DesignResult") -> None:
        super().finish(m, result)
        ledger = self.ledgers[m]
        self.conn.send(("done", m, result, ledger.k, ledger.charged))

    def ship_rows(self, shard_id: int) -> None:
        rows = self.engine.drain_store_rows()
        if rows:
            self.conn.send(("rows", shard_id, rows))


def _shard_main(
    shard_id: int,
    conn: "Connection",
    spec: "DesignSpec",
    members: Sequence[Any],
    assigns: List[_Assign],
    config: EngineConfig,
    metered: bool,
) -> None:
    """One shard process: race the assigned members, then report."""
    busy0 = time.process_time()
    engine = EvaluationEngine(spec, config, store_read_only=True)
    race = _ShardRace(spec, members, engine, conn, metered, dict(assigns))
    for m, _ in assigns:
        race.start(_MemberLedger(m))
    while race.programs:
        race.round()
        race.ship_rows(shard_id)
    race.ship_rows(shard_id)
    counters = engine.counters()
    busy = time.process_time() - busy0
    engine.close()
    conn.send(("final", shard_id, counters, busy))
    conn.close()


# ======================================================================
# parent coordinator
# ======================================================================
@dataclass
class _MemberState(_MemberLedger):
    """The parent's ledger for one member, with its verdict log."""

    owner: int = -1
    status: str = "running"  # running | done | failed
    verdicts: List[bool] = field(default_factory=list)  # by k, metered only
    respawns: int = 0


@dataclass
class _ShardHandle:
    """The parent's handle on one worker process."""

    id: int
    proc: Any
    conn: "Connection"
    alive: bool = True
    members: Set[int] = field(default_factory=set)
    counters: Optional[EngineCounters] = None
    busy_seconds: float = 0.0


class _Coordinator:
    """One sharded race's parent-side state machine (single-use)."""

    def __init__(self, runner: "PortfolioRunner", spec: "DesignSpec"):
        self.runner = runner
        self.spec = spec
        self.ctx = mp.get_context("fork")
        self.states = [_MemberState(index) for index in range(len(runner.members))]
        self.shards: Dict[int, _ShardHandle] = {}
        self.next_shard_id = 0
        self.pending_asks: Dict[int, Tuple[int, int, bool]] = {}
        self.budget = _SharedBudget(runner.budget)
        self.metered = runner.budget.max_evaluations is not None
        self.respawns = 0
        self.events: List[ShardEvent] = []
        self.started = time.perf_counter()
        self.rows: Dict[bytes, bytes] = {}  # shipped store rows, by key
        self.writer_counters: Optional[EngineCounters] = None

    # -- helpers -------------------------------------------------------
    def _elapsed(self) -> float:
        return time.perf_counter() - self.started

    def _event(self, kind: str, shard: int, member: int = -1, detail: str = "") -> None:
        self.events.append(
            ShardEvent(kind, shard, member, detail, round(self._elapsed(), 6))
        )

    def _spawn(self, assigns: List[_Assign]) -> _ShardHandle:
        shard_id = self.next_shard_id
        self.next_shard_id += 1
        parent_conn, child_conn = self.ctx.Pipe()
        runner = self.runner
        proc = self.ctx.Process(
            target=_shard_main,
            args=(
                shard_id, child_conn, self.spec, runner.members, assigns,
                runner.engine, self.metered,
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
            members={m for m, _ in assigns},
        )
        for m in handle.members:
            self.states[m].owner = shard_id
        self.shards[shard_id] = handle
        self._event("start", shard_id, detail=f"members={sorted(handle.members)}")
        return handle

    # -- message handling ----------------------------------------------
    def _handle(self, shard: _ShardHandle, msg: Tuple[Any, ...]) -> None:
        kind = msg[0]
        if kind == "ask":
            _, m, slot, size, is_moves = msg
            self.pending_asks[m] = (slot, size, is_moves)
        elif kind == "done":
            _, m, result, k, charged = msg
            state = self.states[m]
            if not self.metered:
                # A free race makes no asks: adopt the shard's charges.
                self.budget.charged += charged
                state.charged = charged
            state.status = "done"
            state.result = result
            state.k = k
            shard.members.discard(m)
            self.pending_asks.pop(m, None)
            self._event("done", shard.id, m)
        elif kind == "rows":
            self.rows.update(msg[2])
        elif kind == "final":
            _, _, counters, busy = msg
            shard.counters = counters
            shard.busy_seconds = busy

    def _drain_decisions(self) -> None:
        """Decide pending asks in the lockstep's global (k, member) order."""
        while True:
            live = [s for s in self.states if s.status == "running"]
            if not live:
                return
            head = min(live, key=lambda s: (s.k, s.index))
            ask = self.pending_asks.get(head.index)
            if ask is None or ask[0] != head.k:
                return
            del self.pending_asks[head.index]
            _, size, is_moves = ask
            granted = self.budget.grant(head, size, is_moves)
            head.verdicts.append(granted)
            self.shards[head.owner].conn.send(granted)

    # -- death -----------------------------------------------------------
    def _on_death(self, shard: _ShardHandle) -> None:
        """A worker died without its final message: respawn its members."""
        # Drain whatever it managed to send first (results matter).
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
        assigns: List[_Assign] = []
        for state in orphans:
            # Its undecided ask died with it; the rerun asks again at
            # the same k once it has replayed every logged verdict.
            self.pending_asks.pop(state.index, None)
            state.respawns += 1
            self.respawns += 1
            if state.respawns > self.runner.respawn_limit:
                state.status = "failed"
                self._event("failed", shard.id, state.index,
                            detail="respawn limit")
                continue
            assigns.append((state.index, list(state.verdicts)))
        if not assigns:
            return
        replacement = self._spawn(assigns)
        for m, _ in assigns:
            self._event("respawn", replacement.id, m)

    # -- main loop ------------------------------------------------------
    def run(self) -> PortfolioResult:
        from multiprocessing.connection import wait as mpwait

        runner = self.runner
        engine = runner.engine
        if engine.persistent:
            # Create the database and its schema before any shard opens
            # its read-only view, and close that handle again.
            make_store(engine.cache_store, engine.cache_path, None).close()
        for s in range(runner.shards):  # round-robin assignment
            self._spawn([
                (m, []) for m in range(s, len(runner.members), runner.shards)
            ])
        try:
            self._loop(mpwait)
            self._collect_finals(mpwait)
        finally:
            for shard in self.shards.values():
                if shard.proc.is_alive():
                    shard.proc.terminate()
                shard.proc.join(timeout=5.0)
            self._persist_rows()

        totals = EngineCounters(0, 0, 0)
        shard_ids: List[int] = []
        shard_counters: List[EngineCounters] = []
        shard_busy: List[float] = []
        for _, shard in sorted(self.shards.items()):
            if shard.counters is None:
                continue
            shard_ids.append(shard.id)
            shard_counters.append(shard.counters)
            shard_busy.append(shard.busy_seconds)
            totals = totals + shard.counters
        if self.writer_counters is not None:
            totals = totals + self.writer_counters
        return _race_result(
            runner.members,
            self.states,
            totals,
            self.budget.cut,
            shards=runner.shards,
            shard_ids=shard_ids,
            shard_counters=shard_counters,
            shard_busy_seconds=shard_busy,
            events=self.events,
            respawns=self.respawns,
        )

    def _persist_rows(self) -> None:
        """Write the rows the shards shipped in one batch, through the
        race's only read-write connection.  It opens only now, after the
        last shard stopped reading: every shard saw the store as it
        stood when the race started."""
        if not self.rows:
            return
        with EvaluationEngine(self.spec, self.runner.engine) as writer:
            writer.absorb_store_rows(list(self.rows.items()))
        self.writer_counters = writer.counters()

    def _loop(self, mpwait: Any) -> None:
        while any(s.status == "running" for s in self.states):
            if (
                self.runner.race_timeout is not None
                and self._elapsed() > self.runner.race_timeout
            ):
                raise RuntimeError(
                    f"sharded race exceeded {self.runner.race_timeout}s"
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

    def _collect_finals(self, mpwait: Any) -> None:
        """Read every live shard's last rows and final counters."""
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            sources = {
                s.conn: s
                for s in self.shards.values()
                if s.alive and s.counters is None
            }
            if not sources:
                return
            for ready in mpwait(list(sources), timeout=1.0):
                shard = sources[ready]
                try:
                    while shard.conn.poll():
                        self._handle(shard, shard.conn.recv())
                except (EOFError, OSError):
                    shard.alive = False
                if shard.counters is not None:
                    shard.alive = False
