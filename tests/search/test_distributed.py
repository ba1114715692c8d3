"""Sharded racing: the lockstep pin, crashes and replay, the watchdog,
the store."""

from __future__ import annotations

import multiprocessing as mp
import os
import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

import pytest

from searchutil import small_scenario

from repro.core.adhoc import AdHocStrategy
from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.core.strategy import DesignEvaluator
from repro.engine import EngineConfig
from repro.experiments.runner import design_fingerprint, run_portfolio
from repro.gen.families import get_family
from repro.search import distributed
from repro.search.budget import Budget
from repro.search.portfolio import PortfolioRunner
from repro.utils.errors import ConfigError

SA_ITERS = 60


@pytest.fixture(scope="module")
def spec():
    return small_scenario(seed=3).spec()


def sa(seed: int = 7, iterations: int = SA_ITERS) -> SimulatedAnnealing:
    return SimulatedAnnealing(iterations=iterations, seed=seed)


def members() -> list:
    return [AdHocStrategy(), MappingHeuristic(), sa(7), sa(11, 80)]


def result_key(result) -> tuple:
    """Everything the lockstep/distributed comparison must preserve."""
    return (
        result.winner.name if result.winner else None,
        result.best.design_identity() if result.best else None,
        tuple(
            (m.name, m.evaluations_served, m.objective) for m in result.members
        ),
        result.budget_cut,
    )


def event_kinds(result) -> dict:
    kinds: dict = {}
    for event in result.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    return kinds


# ----------------------------------------------------------------------
# any shard count == the recorded lockstep race
# ----------------------------------------------------------------------
#: The lockstep race of ``members()`` on ``small_scenario(seed=3)``,
#: recorded from the in-process runner before the sharded arm shared
#: its code: per member ``(name, evaluations_served, rounds, objective,
#: stop reason)``, the winner's name and design fingerprint, the
#: budget cut and the engine's ``(evaluations, cache hits, misses)``.
LOCKSTEP_PIN = {
    "free": {
        "members": [
            ("AH", 0, 0, 116.67930250189538, None),
            ("MH", 138, 5, 111.67551175132677, "local-optimum"),
            ("SA", 293, 91, 111.67551175132677, "local-optimum"),
            ("SA#2", 274, 110, 111.67551175132677, "local-optimum"),
        ],
        "winner": ("SA#2", "59482abb73371307"),
        "budget_cut": False,
        "engine": (705, 335, 370),
    },
    "metered": {
        "members": [
            ("AH", 0, 0, 116.67930250189538, None),
            ("MH", 138, 5, 111.67551175132677, "local-optimum"),
            ("SA", 31, 34, 116.67930250189538, "shared-budget"),
            ("SA#2", 31, 34, 116.67930250189538, "shared-budget"),
        ],
        "winner": ("MH", "c2dfc43b1849b0d1"),
        "budget_cut": True,
        "engine": (200, 32, 168),
    },
}


def race(spec, shards, budget=None):
    return PortfolioRunner(
        members(), budget=budget, shards=shards, race_timeout=120.0
    ).run(spec)


def assert_matches_pin(result, pin, shards):
    assert [
        (
            m.name,
            m.evaluations_served,
            m.rounds,
            m.objective,
            m.result.search.stop_reason if m.result.search else None,
        )
        for m in result.members
    ] == pin["members"]
    assert (result.winner.name, design_fingerprint(result.best)) == pin["winner"]
    assert result.budget_cut == pin["budget_cut"]
    # No member re-evaluates anything (a respawned one reruns on a
    # fresh engine and the dead shard's counters are lost with it), so
    # the fleet serves exactly the lockstep's requests.  Cache hits
    # across members need one engine: 0 or 1 shards.
    engine = (result.evaluations, result.cache_hits, result.cache_misses)
    assert engine[0] == pin["engine"][0]
    if shards <= 1:
        assert engine == pin["engine"]


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [0, 1, 2])
    def test_free_race_matches_lockstep(self, spec, shards):
        result = race(spec, shards)
        assert_matches_pin(result, LOCKSTEP_PIN["free"], shards)
        assert result.shards == shards
        assert result.respawns == 0

    @pytest.mark.parametrize("shards", [0, 1, 2])
    def test_metered_race_matches_recorded_lockstep(self, spec, shards):
        result = race(spec, shards, budget=Budget(max_evaluations=200))
        assert_matches_pin(result, LOCKSTEP_PIN["metered"], shards)

    def test_fleet_counters_merge(self, spec):
        result = race(spec, 2)
        assert result.shards == 2
        assert len(result.shard_counters) == 2
        assert result.evaluations == sum(
            c.evaluations for c in result.shard_counters
        )
        assert result.cache_hits == sum(
            c.cache_hits for c in result.shard_counters
        )
        assert all(busy >= 0.0 for busy in result.shard_busy_seconds)

    def test_in_process_race_has_no_fleet(self, spec):
        result = race(spec, 0)
        assert result.shards == result.respawns == 0
        assert result.shard_ids == result.shard_busy_seconds == []
        assert result.shard_counters == result.events == []

    def test_rejects_bad_configurations(self, spec):
        with pytest.raises(ConfigError, match="wall-clock"):
            PortfolioRunner(
                members(), budget=Budget(max_seconds=1.0), shards=2
            )
        with pytest.raises(ConfigError, match="shards must be >= 0"):
            PortfolioRunner(members(), shards=-1)


# ----------------------------------------------------------------------
# failure injection: a shard dies mid-race, its members respawn
# ----------------------------------------------------------------------
@dataclass
class CrashOnce:
    """Delegates to an inner strategy; kills its worker process at the
    ``crash_at``-th move request -- once.  The sentinel file is touched
    just before dying so the respawned attempt runs clean.  Every
    exception thrown in (a budget cut) is forwarded to the inner
    program."""

    inner: SimulatedAnnealing
    crash_at: int
    sentinel: str
    hard: bool = True  # os._exit vs raised exception

    @property
    def name(self) -> str:
        return self.inner.name

    def search_program(self, spec, compiled):
        program = self.inner.search_program(spec, compiled)
        step, value = program.send, None
        moves = 0
        while True:
            try:
                request = step(value)
            except StopIteration as stop:
                return stop.value
            if request.moves is not None:
                moves += 1
                if moves == self.crash_at and not os.path.exists(self.sentinel):
                    Path(self.sentinel).touch()
                    if self.hard:
                        os._exit(1)
                    raise RuntimeError("injected shard failure")
            try:
                step, value = program.send, (yield request)
            except Exception as thrown:
                step, value = program.throw, thrown


@dataclass
class Stall:
    """A member whose program sleeps before its first request."""

    seconds: float
    name = "stall"

    def search_program(self, spec, compiled):
        time.sleep(self.seconds)
        return (yield from MappingHeuristic().search_program(spec, compiled))


class TestFailureInjection:
    @pytest.mark.parametrize("hard", [True, False], ids=["os-exit", "raise"])
    def test_dead_shard_respawns_from_checkpoint(self, spec, tmp_path, hard):
        """The respawned member reruns from its seed: the crash is
        invisible to the race outcome."""
        sentinel = str(tmp_path / "crashed")
        crashers = [
            AdHocStrategy(),
            MappingHeuristic(),
            CrashOnce(sa(7), crash_at=35, sentinel=sentinel, hard=hard),
            sa(11, 80),
        ]
        result = PortfolioRunner(crashers, shards=2, race_timeout=120.0).run(spec)
        assert os.path.exists(sentinel)
        assert result.respawns == 1
        kinds = event_kinds(result)
        assert kinds.get("dead", 0) == 1
        assert kinds.get("respawn", 0) == 1
        assert_matches_pin(result, LOCKSTEP_PIN["free"], shards=2)

    def test_metered_crash_conserves_budget(self, spec, tmp_path, monkeypatch):
        """A metered crash replays the logged verdicts: the race matches
        the never-crashed lockstep race, and the rerun asks the parent
        for no decision it already made."""
        asks = []
        handle = distributed._Coordinator._handle

        def counting(self, shard, msg):
            if msg[0] == "ask":
                asks.append(msg)
            handle(self, shard, msg)

        monkeypatch.setattr(distributed._Coordinator, "_handle", counting)
        sentinel = str(tmp_path / "crashed")
        crashers = [
            AdHocStrategy(),
            MappingHeuristic(),
            CrashOnce(sa(7), crash_at=10, sentinel=sentinel),
            sa(11, 80),
        ]
        budget = Budget(max_evaluations=200)
        result = PortfolioRunner(
            crashers, budget=budget, shards=2, race_timeout=120.0
        ).run(spec)
        assert os.path.exists(sentinel)
        assert result.respawns == 1
        assert_matches_pin(result, LOCKSTEP_PIN["metered"], 2)
        # Every decision is asked once; only an undecided ask in flight
        # when a shard dies is asked again by its rerun.
        rounds = sum(m.rounds for m in result.members)
        assert len(asks) <= rounds + result.respawns

    def test_respawn_limit_fails_member_not_race(self, spec, tmp_path):
        # A member that crashes on every attempt (sentinel never helps:
        # crash_at=1 and we delete the sentinel path trick by pointing
        # it into a directory that cannot exist as a file check target).
        sentinel = str(tmp_path / "never" / "exists")  # touch() fails -> crash every time
        crashers = [
            AdHocStrategy(),
            CrashOnce(sa(7), crash_at=1, sentinel=sentinel),
        ]
        result = PortfolioRunner(
            crashers, shards=2, respawn_limit=2, race_timeout=120.0,
        ).run(spec)
        kinds = event_kinds(result)
        assert kinds.get("failed", 0) == 1
        failed = result.members[1]
        assert not failed.result.valid
        # The healthy member still wins the race.
        assert result.winner is not None
        assert result.winner.name == "AH"


# ----------------------------------------------------------------------
# the race_timeout watchdog
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_hung_race_aborts_and_reaps_its_workers(self, spec):
        before = set(mp.active_children())
        with pytest.raises(RuntimeError, match="exceeded"):
            PortfolioRunner([Stall(30.0)], shards=1, race_timeout=0.5).run(spec)
        assert not set(mp.active_children()) - before


# ----------------------------------------------------------------------
# sqlite store: workers read-only, parent is the single writer
# ----------------------------------------------------------------------
class TestSqliteStore:
    def test_single_writer_and_warm_reuse(self, spec, tmp_path):
        path = str(tmp_path / "results.sqlite")
        cold = PortfolioRunner(
            members(), shards=2, race_timeout=120.0,
            engine=EngineConfig(cache_store="sqlite", cache_path=path),
        ).run(spec)
        assert cold.store_writes > 0
        warm = PortfolioRunner(
            members(), shards=2, race_timeout=120.0,
            engine=EngineConfig(cache_store="sqlite", cache_path=path),
        ).run(spec)
        assert warm.store_hits > 0
        assert result_key(warm) == result_key(cold)

    def test_fresh_path_every_shard_probes_the_store(
        self, tmp_path, monkeypatch
    ):
        """On a database that does not exist yet, no shard's read-only
        view may open before the schema does (it would degrade to
        memory-only): every shard probes the store, and the parent's
        single writer persists exactly the lockstep race's misses.

        The parent's writer is held back after forking, so a shard
        that could race ahead of the schema does so every time."""
        spec = get_family("uniform-baseline").build("tiny", 1).spec()

        def race_sa(shards, engine=EngineConfig()):
            return run_portfolio(
                spec, ("SA", "SA@2"), seed=1, sa_iterations=200,
                shards=shards, engine=engine,
            )

        misses = race_sa(0).cache_misses
        init = DesignEvaluator.__init__

        def late_writer(self, *args, store_read_only=False, **kwargs):
            if not store_read_only:
                time.sleep(0.5)
            init(self, *args, store_read_only=store_read_only, **kwargs)

        monkeypatch.setattr(DesignEvaluator, "__init__", late_writer)
        path = tmp_path / "fresh.sqlite"
        sharded = race_sa(
            2, EngineConfig(cache_store="sqlite", cache_path=str(path))
        )
        assert len(sharded.shard_counters) == 2
        assert all(
            c.store_hits + c.store_misses > 0 for c in sharded.shard_counters
        )
        with closing(sqlite3.connect(path)) as conn:
            (rows,) = conn.execute("SELECT COUNT(*) FROM results").fetchone()
        assert rows == misses

    @pytest.mark.parametrize("late", [0, 1])
    def test_cold_store_counters_do_not_depend_on_timing(
        self, tmp_path, monkeypatch, late
    ):
        """Every shard sees the store as it stood when the race started,
        so a late shard reads none of the rows the other shard priced
        meanwhile: per-shard counters equal the memory-store race's."""
        spec = get_family("uniform-baseline").build("tiny", 1).spec()

        def counts(engine=EngineConfig()):
            result = run_portfolio(
                spec, ("MH", "SA"), seed=1, shards=2, engine=engine
            )
            return [
                (c.evaluations, c.cache_hits, c.cache_misses)
                for c in result.shard_counters
            ]

        expected = counts()
        shard_main = distributed._shard_main

        def delayed(shard_id, *args):
            if shard_id == late:
                time.sleep(0.5)
            shard_main(shard_id, *args)

        monkeypatch.setattr(distributed, "_shard_main", delayed)
        path = str(tmp_path / "fresh.sqlite")
        assert counts(EngineConfig(cache_store="sqlite", cache_path=path)) == expected
