"""Distributed racing: steal/resume identity, churn, failure, budgets."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import pytest

from searchutil import small_scenario

from repro.core.adhoc import AdHocStrategy
from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.core.strategy import DesignEvaluator
from repro.engine import EngineConfig
from repro.search.budget import Budget, StealRequested
from repro.search.checkpoint import MemberCheckpoint, MemberPaused
from repro.search.distributed import DistributedPortfolioRunner
from repro.search.loop import drive, execute_request
from repro.search.portfolio import PortfolioRunner

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
# sharded race == lockstep reference
# ----------------------------------------------------------------------
class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_free_race_matches_lockstep(self, spec, shards):
        reference = PortfolioRunner(members()).run(spec)
        result = DistributedPortfolioRunner(
            members(), shards=shards, checkpoint_every=100, race_timeout=120.0
        ).run(spec)
        assert result_key(result) == result_key(reference)
        assert result.shards == shards
        assert result.respawns == 0

    def test_metered_race_matches_lockstep(self, spec):
        budget = Budget(max_evaluations=200)
        reference = PortfolioRunner(members(), budget=budget).run(spec)
        result = DistributedPortfolioRunner(
            members(), budget=budget, shards=2, checkpoint_every=64,
            race_timeout=120.0,
        ).run(spec)
        assert reference.budget_cut
        assert result_key(result) == result_key(reference)

    def test_steal_schedule_replay(self, spec):
        reference = PortfolioRunner(members()).run(spec)
        result = DistributedPortfolioRunner(
            members(), shards=2, checkpoint_every=0, race_timeout=120.0,
            steal_schedule=[{"member": 2, "at": 20, "to": 0}],
        ).run(spec)
        assert result_key(result) == result_key(reference)
        steals = [e for e in result.events if e.kind == "steal"]
        assert [(e.shard, e.member) for e in steals] == [(0, 2)]

    def test_fleet_counters_merge(self, spec):
        result = DistributedPortfolioRunner(
            members(), shards=2, checkpoint_every=0, race_timeout=120.0
        ).run(spec)
        assert len(result.shard_counters) == 2
        assert result.evaluations == sum(
            c.evaluations for c in result.shard_counters
        )
        assert result.cache_hits == sum(
            c.cache_hits for c in result.shard_counters
        )
        assert all(busy >= 0.0 for busy in result.shard_busy_seconds)

    def test_rejects_bad_configurations(self, spec):
        with pytest.raises(ValueError, match="wall-clock"):
            DistributedPortfolioRunner(
                members(), budget=Budget(max_seconds=1.0), shards=2
            )
        with pytest.raises(ValueError, match="elastic_plan"):
            DistributedPortfolioRunner(
                members(), shards=2,
                elastic_plan=[{"after_done": 1, "action": "add"}],
            )
        with pytest.raises(ValueError, match="'to'"):
            DistributedPortfolioRunner(
                members(), shards=2,
                steal_schedule=[{"member": 1, "at": 5}],
            )
        with pytest.raises(ValueError, match="elastic_plan"):
            DistributedPortfolioRunner(
                members(), shards=2, mode="elastic",
                elastic_plan=[{"after_done": 1, "action": "explode"}],
            )


# ----------------------------------------------------------------------
# elastic churn: workers added and removed mid-race
# ----------------------------------------------------------------------
class TestElasticChurn:
    def test_add_and_remove_workers_mid_race(self, spec):
        reference = PortfolioRunner(members()).run(spec)
        result = DistributedPortfolioRunner(
            members(), shards=2, mode="elastic", checkpoint_every=50,
            race_timeout=120.0,
            elastic_plan=[
                {"after_done": 1, "action": "add"},
                {"after_done": 2, "action": "remove", "shard": 0},
            ],
        ).run(spec)
        assert result_key(result) == result_key(reference)
        kinds = event_kinds(result)
        assert kinds.get("add") == 1
        assert kinds.get("remove") == 1
        assert kinds.get("steal", 0) >= 1  # the drained shard's members moved

    def test_idle_shard_steals_work(self, spec):
        # Three shards, four members: AH finishes instantly, so at
        # least one shard starves and must steal a running member.
        reference = PortfolioRunner(members()).run(spec)
        result = DistributedPortfolioRunner(
            members(), shards=3, mode="elastic", checkpoint_every=50,
            race_timeout=120.0,
        ).run(spec)
        assert result_key(result) == result_key(reference)


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
        reference = PortfolioRunner(members()).run(spec)
        result = DistributedPortfolioRunner(
            crashers, shards=2, checkpoint_every=20, race_timeout=120.0
        ).run(spec)
        assert os.path.exists(sentinel)
        assert result.respawns >= 1
        kinds = event_kinds(result)
        assert kinds.get("dead", 0) >= 1
        assert kinds.get("respawn", 0) >= 1
        # The crash is invisible to the race outcome: the respawned
        # member resumes from its checkpoint and lands byte-identical
        # to the never-crashed lockstep reference -- including its
        # exact evaluations_served accounting (the dead attempt's
        # un-checkpointed work is refunded, then re-charged).
        assert result_key(result) == result_key(reference)

    def test_metered_crash_conserves_budget(self, spec, tmp_path):
        sentinel = str(tmp_path / "crashed")
        crashers = [
            AdHocStrategy(),
            MappingHeuristic(),
            CrashOnce(sa(7), crash_at=35, sentinel=sentinel),
            sa(11, 80),
        ]
        budget = Budget(max_evaluations=200)
        result = DistributedPortfolioRunner(
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
        result = DistributedPortfolioRunner(
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
        cold = DistributedPortfolioRunner(
            members(), shards=2, checkpoint_every=0, race_timeout=120.0,
            engine=EngineConfig(cache_store="sqlite", cache_path=path),
        ).run(spec)
        assert cold.store_writes > 0
        warm = DistributedPortfolioRunner(
            members(), shards=2, checkpoint_every=0, race_timeout=120.0,
            engine=EngineConfig(cache_store="sqlite", cache_path=path),
        ).run(spec)
        assert warm.store_hits > 0
        assert result_key(warm) == result_key(cold)
