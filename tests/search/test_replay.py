"""A search is rerun from its seed, never resumed.

The guarantees that let a rerun stand in for a resume: a seeded walk
is byte-identical in any engine, warm or fresh; a budget cut is a
prefix of the longer walk, and a cut descent restarted from its
incumbent lands on the full descent's optimum; a rerun against a warm
sqlite store is served from disk and lands on the cold run's design.
"""

from __future__ import annotations

import numpy as np
import pytest

from searchutil import identity, start_of

from repro.engine import EngineConfig, EvaluationEngine
from repro.experiments.runner import family_strategy
from repro.gen.families import get_family
from repro.search.acceptors import GreedyAcceptor, MetropolisAcceptor
from repro.search.budget import Budget
from repro.search.loop import SearchLoop
from repro.search.proposers import NeighbourhoodProposer, RandomMoveProposer


def walk_loop(max_steps: int) -> SearchLoop:
    """A fresh Metropolis walk (fresh acceptor state per run)."""
    return SearchLoop(
        RandomMoveProposer(),
        MetropolisAcceptor(temperature=5.0, cooling=0.99),
        Budget(max_steps=max_steps),
        name="walk",
    )


def descent_loop(budget=None) -> SearchLoop:
    return SearchLoop(NeighbourhoodProposer(), GreedyAcceptor(), budget)


def fingerprint(loop, outcome, rng):
    """Everything a checkpoint used to carry, in comparable form."""
    stats = outcome.stats
    return (
        identity(outcome.incumbent),
        identity(outcome.current),
        (
            stats.steps,
            stats.proposals,
            stats.evaluations,
            stats.accepted,
            stats.improvements,
            stats.evaluations_to_incumbent,
            stats.stop_reason,
        ),
        loop.acceptor.temperature,
        rng.bit_generator.state,
    )


def seeded_walk(spec, engine, seed, max_steps=100, observer=None):
    loop = walk_loop(max_steps)
    rng = np.random.default_rng(seed)
    outcome = loop.run(
        spec,
        engine,
        start=start_of(spec, engine),
        rng=rng,
        observer=observer,
    )
    return fingerprint(loop, outcome, rng)


class TestSeededRerun:
    def test_rerun_in_fresh_engine_is_byte_identical(self, spec):
        with EvaluationEngine(spec) as first:
            original = seeded_walk(spec, first, seed=42)
        with EvaluationEngine(spec) as fresh:
            rerun = seeded_walk(spec, fresh, seed=42)
        assert rerun == original

    def test_rerun_on_warm_engine_prices_nothing_new(self, spec):
        with EvaluationEngine(spec) as engine:
            original = seeded_walk(spec, engine, seed=42)
            before = engine.counters()
            rerun = seeded_walk(spec, engine, seed=42)
            after = engine.counters()
        assert rerun == original
        assert after.cache_misses == before.cache_misses
        assert after.cache_hits > before.cache_hits

    def test_other_seed_walks_elsewhere(self, spec):
        """The seed drives the walk, so equal reruns are not vacuous."""
        with EvaluationEngine(spec) as engine:
            a = seeded_walk(spec, engine, seed=42)
            b = seeded_walk(spec, engine, seed=43)
        assert (a[1], a[2]) != (b[1], b[2])

    def test_stochastic_walk_without_rng_is_refused(
        self, spec, evaluator, start
    ):
        """Nothing seeds a stream behind the caller's back: a walk
        with no generator cannot be rerun, so it does not start."""
        with pytest.raises(ValueError, match="requires an rng"):
            walk_loop(10).run(spec, evaluator, start=start, rng=None)


class TestBudgetCutIsAPrefix:
    def test_shorter_step_budget_walk_is_a_prefix(self, spec, evaluator):
        """A 40-step cut is the first 40 steps of the 100-step walk:
        rerunning with the larger budget replaces resuming the cut."""
        long_events, cut_events = [], []
        seeded_walk(
            spec, evaluator, seed=42, max_steps=100,
            observer=long_events.append,
        )
        cut = seeded_walk(
            spec, evaluator, seed=42, max_steps=40,
            observer=cut_events.append,
        )

        def trail(events):
            return [
                (
                    e.step,
                    identity(e.previous),
                    None if e.accepted is None else identity(e.accepted),
                )
                for e in events
            ]

        assert len(long_events) == 100
        assert trail(cut_events) == trail(long_events[:40])
        assert cut[2][6] == "budget:steps"
        assert cut[1] == identity(long_events[40].previous)

    def test_cut_descent_restarted_from_its_incumbent_reaches_full_optimum(
        self, spec, evaluator, start
    ):
        """A descent's whole state is its current design, so a cut
        descent restarted from its incumbent ends where the uncut one
        does."""
        full = descent_loop().run(spec, evaluator, start=start)
        cut = descent_loop(Budget(max_evaluations=60)).run(
            spec, evaluator, start=start
        )
        assert cut.stats.stop_reason == "budget:evaluations"
        restarted = descent_loop().run(spec, evaluator, start=cut.incumbent)
        assert restarted.stats.stop_reason == "local-optimum"
        assert identity(restarted.incumbent) == identity(full.incumbent)

    def test_cut_descent_incumbent_lies_on_full_path(
        self, spec, evaluator, start
    ):
        path = [identity(start)]

        def record(event):
            if event.accepted is not None:
                path.append(identity(event.accepted))

        full = descent_loop().run(
            spec, evaluator, start=start, observer=record
        )
        cut = descent_loop(Budget(max_evaluations=60)).run(
            spec, evaluator, start=start
        )
        assert identity(cut.incumbent) in path
        assert full.incumbent.objective <= cut.incumbent.objective


class TestWarmStoreReplay:
    def test_warm_sqlite_rerun_equals_cold_run(self, spec, tmp_path):
        """Only the database file survives between the two runs, as
        across a process restart."""
        store = EngineConfig(
            cache_store="sqlite", cache_path=str(tmp_path / "walk.sqlite")
        )
        with EvaluationEngine(spec, store) as cold_engine:
            cold = seeded_walk(spec, cold_engine, seed=42)
            assert cold_engine.counters().store_writes > 0
        with EvaluationEngine(spec, store) as warm_engine:
            warm = seeded_walk(spec, warm_engine, seed=42)
            counters = warm_engine.counters()
        assert warm == cold
        assert counters.store_hits > 0
        assert counters.store_misses == 0
        assert counters.store_writes == 0

    def test_warm_strategy_rerun_serves_every_probe_from_disk(
        self, tmp_path
    ):
        spec = get_family("uniform-baseline").build("tiny", 1).spec()
        store = EngineConfig(
            cache_store="sqlite", cache_path=str(tmp_path / "sa.sqlite")
        )
        cold = family_strategy("SA", 1, 200, engine=store).design(spec)
        warm = family_strategy("SA", 1, 200, engine=store).design(spec)
        assert cold.store_writes > 0
        assert warm.store_hits > 0
        assert warm.store_misses == 0
        assert warm.store_writes == 0
        assert warm.design_identity() == cold.design_identity()
