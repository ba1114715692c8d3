"""Checkpoint serialization and cut-plus-resume == uninterrupted."""

from __future__ import annotations

import numpy as np

from searchutil import identity, small_scenario, start_of

from repro.core.simulated_annealing import SimulatedAnnealing
from repro.core.strategy import DesignEvaluator
from repro.engine import EngineConfig
from repro.search.acceptors import GreedyAcceptor, MetropolisAcceptor
from repro.search.budget import Budget, StealRequested
from repro.search.checkpoint import MemberCheckpoint, MemberPaused, SearchCheckpoint
from repro.search.loop import SearchLoop, execute_request
from repro.search.proposers import NeighbourhoodProposer, RandomMoveProposer


def walk_loop(max_steps: int) -> SearchLoop:
    """A fresh Metropolis walk (fresh acceptor state per run)."""
    return SearchLoop(
        RandomMoveProposer(),
        MetropolisAcceptor(temperature=5.0, cooling=0.99),
        Budget(max_steps=max_steps),
        name="walk",
    )


class TestSerialization:
    def test_json_round_trip(self, spec, evaluator, start):
        outcome = walk_loop(30).run(
            spec, evaluator, start=start, rng=np.random.default_rng(11)
        )
        checkpoint = outcome.checkpoint
        rebuilt = SearchCheckpoint.from_json(checkpoint.to_json())
        assert rebuilt.to_dict() == checkpoint.to_dict()
        # The wire form is pure JSON: designs as dicts, RNG state as a
        # bit-generator state dict, acceptor state as floats.
        assert rebuilt.rng_state is not None
        assert "temperature" in rebuilt.acceptor_state
        assert rebuilt.steps == 30

    def test_checkpoint_tracks_budget_progress(self, spec, evaluator, start):
        outcome = walk_loop(25).run(
            spec, evaluator, start=start, rng=np.random.default_rng(5)
        )
        checkpoint = outcome.checkpoint
        assert checkpoint.steps == 25
        assert checkpoint.evaluations == outcome.stats.evaluations
        assert checkpoint.seconds > 0.0


class TestResume:
    def test_cut_and_resume_equals_uninterrupted_walk(self, spec):
        """40 steps + resume to 100 == straight 100-step run."""
        with DesignEvaluator(spec) as evaluator:
            start = start_of(spec, evaluator)
            straight = walk_loop(100).run(
                spec, evaluator, start=start, rng=np.random.default_rng(42)
            )
        with DesignEvaluator(spec) as evaluator:
            start = start_of(spec, evaluator)
            cut = walk_loop(40).run(
                spec, evaluator, start=start, rng=np.random.default_rng(42)
            )
            assert cut.stats.stop_reason == "budget:steps"
            # Ship the checkpoint through its JSON wire form, as a
            # cross-process resume would.
            wire = SearchCheckpoint.from_json(cut.checkpoint.to_json())
            resumed = walk_loop(100).resume(spec, evaluator, wire)
        assert resumed.stats.steps == 100
        assert identity(resumed.incumbent) == identity(straight.incumbent)
        assert identity(resumed.current) == identity(straight.current)
        assert (
            resumed.checkpoint.rng_state == straight.checkpoint.rng_state
        )
        assert (
            resumed.checkpoint.acceptor_state
            == straight.checkpoint.acceptor_state
        )

    def test_resume_into_fresh_engine(self, spec):
        """A checkpoint outlives the engine that produced it."""
        with DesignEvaluator(spec) as evaluator:
            start = start_of(spec, evaluator)
            cut = walk_loop(20).run(
                spec, evaluator, start=start, rng=np.random.default_rng(9)
            )
        with DesignEvaluator(spec) as fresh:
            resumed = walk_loop(45).resume(spec, fresh, cut.checkpoint)
        assert resumed.stats.steps == 45
        assert resumed.incumbent.objective <= cut.incumbent.objective

    def test_descent_resume_after_evaluation_cut(self, spec):
        """A budget-cut descent continues to the same local optimum."""
        with DesignEvaluator(spec) as evaluator:
            start = start_of(spec, evaluator)
            full = SearchLoop(
                NeighbourhoodProposer(), GreedyAcceptor(), None
            ).run(spec, evaluator, start=start)
        with DesignEvaluator(spec) as evaluator:
            start = start_of(spec, evaluator)
            cut = SearchLoop(
                NeighbourhoodProposer(),
                GreedyAcceptor(),
                Budget(max_evaluations=60),
            ).run(spec, evaluator, start=start)
            assert cut.stats.stop_reason == "budget:evaluations"
            resumed = SearchLoop(
                NeighbourhoodProposer(), GreedyAcceptor(), None
            ).resume(spec, evaluator, cut.checkpoint)
        assert resumed.stats.stop_reason == "local-optimum"
        assert identity(resumed.incumbent) == identity(full.incumbent)

    def test_cut_and_resume_through_sqlite_store(self, spec, tmp_path):
        """A fresh-process resume against a warm sqlite store replays
        the cut prefix from the database and lands byte-identical to an
        uninterrupted run."""
        path = str(tmp_path / "resume.sqlite")
        with DesignEvaluator(spec) as evaluator:
            start = start_of(spec, evaluator)
            straight = walk_loop(100).run(
                spec, evaluator, start=start, rng=np.random.default_rng(42)
            )
        with DesignEvaluator(
            spec, EngineConfig(cache_store="sqlite", cache_path=path)
        ) as evaluator:
            start = start_of(spec, evaluator)
            cut = walk_loop(40).run(
                spec, evaluator, start=start, rng=np.random.default_rng(42)
            )
            assert cut.stats.stop_reason == "budget:steps"
            wire = cut.checkpoint.to_json()
        # The resuming evaluator is brand new -- only the database file
        # survives, exactly like a process restart.
        with DesignEvaluator(
            spec, EngineConfig(cache_store="sqlite", cache_path=path)
        ) as fresh:
            resumed = walk_loop(100).resume(
                spec, fresh, SearchCheckpoint.from_json(wire)
            )
            assert fresh.store_hits > 0
        assert resumed.stats.steps == 100
        assert identity(resumed.incumbent) == identity(straight.incumbent)
        assert identity(resumed.current) == identity(straight.current)
        assert (
            resumed.checkpoint.rng_state == straight.checkpoint.rng_state
        )
        assert (
            resumed.checkpoint.acceptor_state
            == straight.checkpoint.acceptor_state
        )

    def test_resume_rejects_mismatched_spec(self, spec, evaluator, start):
        import pytest

        from repro.utils.errors import MappingError

        cut = walk_loop(10).run(
            spec, evaluator, start=start, rng=np.random.default_rng(3)
        )
        other = small_scenario(seed=8).spec()
        with DesignEvaluator(other) as fresh:
            with pytest.raises((MappingError, ValueError, KeyError)):
                walk_loop(20).resume(other, fresh, cut.checkpoint)


class TestRestoreRng:
    def test_restored_stream_is_exactly_the_checkpointed_one(self):
        # Regression pin for the determinism fix in _restore_rng: the
        # bootstrap generator is seeded (no OS-entropy draw) and its
        # state is fully replaced, so resuming with rng=None continues
        # the checkpointed stream bit-for-bit.
        from repro.search.loop import _restore_rng

        source = np.random.default_rng(42)
        source.random(17)  # advance mid-stream
        state = source.bit_generator.state
        expected = np.random.default_rng(42)
        expected.random(17)

        restored = _restore_rng(None, state)
        assert restored.bit_generator.state == state
        assert list(restored.random(8)) == list(expected.random(8))

    def test_restore_is_repeatable(self):
        from repro.search.loop import _restore_rng

        state = np.random.default_rng(7).bit_generator.state
        a = _restore_rng(None, state).random(8)
        b = _restore_rng(None, state).random(8)
        assert list(a) == list(b)


def cut_sa_at(spec, cut_at: int) -> MemberCheckpoint:
    """Steal-cut an SA pipeline at its ``cut_at``-th move request."""
    with DesignEvaluator(spec) as evaluator:
        program = SimulatedAnnealing(iterations=60, seed=7).search_program(
            spec, evaluator.compiled
        )
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
        except MemberPaused as pause:
            return pause.checkpoint
    raise AssertionError("program finished before the cut")


class TestMemberCheckpointWire:
    """The steal protocol's wire form: JSON-safe and O(state)-sized."""

    def test_json_round_trip(self, spec):
        checkpoint = cut_sa_at(spec, 30)
        rebuilt = MemberCheckpoint.from_json(checkpoint.to_json())
        assert rebuilt.to_dict() == checkpoint.to_dict()
        assert rebuilt.phase == "walk"
        assert rebuilt.strategy == "SA"
        assert rebuilt.loop.rng_state is not None

    def test_wire_size_is_state_not_history(self, spec):
        # Size regression pin for the once-per-steal serialization
        # contract: a cut late in the walk carries the same payload --
        # two designs, one RNG state, a few counters -- as an early
        # cut.  O(history) leakage (trace accumulation, per-step logs)
        # would show up as growth with the cut position.
        early = len(cut_sa_at(spec, 35).to_json())
        late = len(cut_sa_at(spec, 75).to_json())
        assert late < 32 * 1024
        assert abs(late - early) <= 0.2 * max(early, late)
