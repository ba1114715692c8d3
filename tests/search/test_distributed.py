"""Sharded racing: pause/resume identity, the lockstep pin, crashes, store."""

from __future__ import annotations

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
from repro.search.budget import Budget, StealRequested
from repro.search.checkpoint import MemberCheckpoint, MemberPaused
from repro.search.loop import drive, execute_request
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
# in-process pause/resume protocol (no worker processes)
# ----------------------------------------------------------------------
def run_uncut(strategy, spec):
    with DesignEvaluator(spec) as evaluator:
        return drive(strategy.search_program(spec, evaluator.compiled), evaluator)


def run_cut_at(strategy, spec, cut_at: int):
    """Steal at the ``cut_at``-th move request, reship as JSON, resume."""
    checkpoint = None
    with DesignEvaluator(spec) as evaluator:
        program = strategy.search_program(spec, evaluator.compiled)
        request = next(program)
        moves_seen = 0
        try:
            while True:
                if request.moves is not None:
                    moves_seen += 1
                    if moves_seen == cut_at:
                        request = program.throw(StealRequested())
                        continue
                request = program.send(execute_request(evaluator, request))
        except StopIteration as stop:
            return stop.value, None
        except MemberPaused as pause:
            checkpoint = pause.checkpoint
    wire = MemberCheckpoint.from_json(checkpoint.to_json())
    with DesignEvaluator(spec) as fresh:
        result = drive(
            strategy.search_program(spec, fresh.compiled, resume=wire), fresh
        )
    return result, wire.phase


def design_stats_key(result) -> tuple:
    stats = result.search.as_dict()
    stats.pop("seconds", None)
    return (result.design_identity(), result.objective, tuple(sorted(stats.items())))


class TestPauseResume:
    """The steal cut is invisible: cut + reship + resume == uninterrupted."""

    @pytest.mark.parametrize(
        "cut_at,phase",
        [(1, "probe"), (5, "probe"), (30, "walk"), (70, "walk"),
         (85, "polish"), (88, "polish-from-start")],
    )
    def test_sa_cut_anywhere_is_byte_identical(self, spec, cut_at, phase):
        reference = run_uncut(sa(), spec)
        result, cut_phase = run_cut_at(sa(), spec, cut_at)
        assert cut_phase == phase
        assert design_stats_key(result) == design_stats_key(reference)

    @pytest.mark.parametrize("cut_at", [1, 2, 3])
    def test_mh_cut_is_byte_identical(self, spec, cut_at):
        reference = run_uncut(MappingHeuristic(), spec)
        result, cut_phase = run_cut_at(MappingHeuristic(), spec, cut_at)
        assert cut_phase == "descent"
        assert design_stats_key(result) == design_stats_key(reference)

    def test_checkpoint_reports_strategy_and_phase(self, spec):
        with DesignEvaluator(spec) as evaluator:
            program = sa().search_program(spec, evaluator.compiled)
            request = next(program)
            with pytest.raises(MemberPaused) as caught:
                while True:
                    if request.moves is not None:
                        request = program.throw(StealRequested())
                        continue
                    request = program.send(execute_request(evaluator, request))
        checkpoint = caught.value.checkpoint
        assert checkpoint.strategy == "SA"
        assert checkpoint.phase == "probe"


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


def race(spec, shards, budget=None, **options):
    return PortfolioRunner(
        members(), budget=budget, shards=shards, race_timeout=120.0, **options
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
    if shards == 0:
        # Checkpoint resumes re-evaluate warm designs, so engine totals
        # are pinned for the in-process arm only.
        assert (
            result.evaluations, result.cache_hits, result.cache_misses
        ) == pin["engine"]


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [0, 1, 2])
    def test_free_race_matches_lockstep(self, spec, shards):
        result = race(spec, shards, checkpoint_every=100)
        assert_matches_pin(result, LOCKSTEP_PIN["free"], shards)
        assert result.shards == shards
        assert result.respawns == 0

    @pytest.mark.parametrize("shards", [0, 1, 2])
    def test_metered_race_matches_recorded_lockstep(self, spec, shards):
        result = race(
            spec, shards, budget=Budget(max_evaluations=200), checkpoint_every=64
        )
        assert_matches_pin(result, LOCKSTEP_PIN["metered"], shards)

    def test_fleet_counters_merge(self, spec):
        result = race(spec, 2, checkpoint_every=0)
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
    just before dying so the respawned attempt runs clean."""

    inner: SimulatedAnnealing
    crash_at: int
    sentinel: str
    hard: bool = True  # os._exit vs raised exception

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def resumable(self) -> bool:
        return True

    def search_program(self, spec, compiled, resume=None):
        program = self.inner.search_program(spec, compiled, resume=resume)
        request = next(program)
        while True:
            if request.moves is not None and not request.bookkeeping:
                # Counted on the instance, not the generator: periodic
                # checkpointing cuts and re-instantiates the program
                # mid-race, and the crash must still land eventually.
                self.count = getattr(self, "count", 0) + 1
                if self.count == self.crash_at and not os.path.exists(self.sentinel):
                    Path(self.sentinel).touch()
                    if self.hard:
                        os._exit(1)
                    raise RuntimeError("injected shard failure")
            try:
                results = yield request
            except StealRequested as steal:
                request = program.throw(steal)  # MemberPaused propagates
                continue
            try:
                request = program.send(results)
            except StopIteration as stop:
                return stop.value


class TestFailureInjection:
    @pytest.mark.parametrize("hard", [True, False], ids=["os-exit", "raise"])
    def test_dead_shard_respawns_from_checkpoint(self, spec, tmp_path, hard):
        sentinel = str(tmp_path / "crashed")
        crashers = [
            AdHocStrategy(),
            MappingHeuristic(),
            CrashOnce(sa(7), crash_at=35, sentinel=sentinel, hard=hard),
            sa(11, 80),
        ]
        result = PortfolioRunner(
            crashers, shards=2, checkpoint_every=20, race_timeout=120.0
        ).run(spec)
        assert os.path.exists(sentinel)
        assert result.respawns >= 1
        kinds = event_kinds(result)
        assert kinds.get("dead", 0) >= 1
        assert kinds.get("respawn", 0) >= 1
        # The crash is invisible to the race outcome: the respawned
        # member resumes from its checkpoint and lands byte-identical
        # to the never-crashed lockstep race -- including its exact
        # evaluations_served and rounds accounting (the dead attempt's
        # un-checkpointed work is refunded, then re-charged).
        assert_matches_pin(result, LOCKSTEP_PIN["free"], shards=2)

    def test_metered_crash_conserves_budget(self, spec, tmp_path):
        sentinel = str(tmp_path / "crashed")
        crashers = [
            AdHocStrategy(),
            MappingHeuristic(),
            CrashOnce(sa(7), crash_at=35, sentinel=sentinel),
            sa(11, 80),
        ]
        budget = Budget(max_evaluations=200)
        result = PortfolioRunner(
            crashers, budget=budget, shards=2, checkpoint_every=20,
            race_timeout=120.0,
        ).run(spec)
        assert result.respawns >= 1
        # Grants never overshoot, and a dead shard's un-checkpointed
        # work is refunded before its members re-charge it: the ledger
        # stays exact despite the crash.
        charged = sum(m.evaluations_served for m in result.members)
        assert 0 < charged <= 200
        assert result.budget_cut

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
            crashers, shards=2, checkpoint_every=0, respawn_limit=2,
            race_timeout=120.0,
        ).run(spec)
        kinds = event_kinds(result)
        assert kinds.get("failed", 0) == 1
        failed = result.members[1]
        assert not failed.result.valid
        # The healthy member still wins the race.
        assert result.winner is not None
        assert result.winner.name == "AH"


# ----------------------------------------------------------------------
# sqlite store: workers read-only, parent is the single writer
# ----------------------------------------------------------------------
class TestSqliteStore:
    def test_single_writer_and_warm_reuse(self, spec, tmp_path):
        path = str(tmp_path / "results.sqlite")
        cold = PortfolioRunner(
            members(), shards=2, checkpoint_every=0, race_timeout=120.0,
            engine=EngineConfig(cache_store="sqlite", cache_path=path),
        ).run(spec)
        assert cold.store_writes > 0
        warm = PortfolioRunner(
            members(), shards=2, checkpoint_every=0, race_timeout=120.0,
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
