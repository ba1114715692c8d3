"""Tests for evaluation memoization: accounting, verdicts, equivalence.

The unit suite runs over *both* result-store backends (memory and
sqlite): the counter/LRU contract -- every probe through ``lookup``,
batch commits in order -- must hold byte-for-byte whichever store sits
underneath the cache.
"""

from dataclasses import replace

import pytest

from repro.core.initial_mapping import InitialMapper
from repro.core.strategy import DesignEvaluator, make_strategy
from repro.core.transformations import CandidateDesign, RemapProcess
from repro.engine import EngineConfig
from repro.engine.cache import EvaluationCache
from repro.engine.store import DEFAULT_MAX_ENTRIES, SqliteResultStore
from repro.sched.priorities import hcp_priorities


@pytest.fixture(scope="module")
def im_design(spec):
    mapper = InitialMapper(spec.architecture)
    mapping, _ = mapper.try_map_and_schedule(
        spec.current, base=spec.base_schedule
    )
    return CandidateDesign(
        mapping, hcp_priorities(spec.current, spec.architecture.bus)
    )


@pytest.fixture(params=["memory", "sqlite"])
def make_cache(request, tmp_path):
    """EvaluationCache factory parameterized over both store backends."""
    counter = {"n": 0}

    def factory(max_entries=DEFAULT_MAX_ENTRIES):
        if request.param == "memory":
            return EvaluationCache(max_entries=max_entries)
        counter["n"] += 1
        store = SqliteResultStore(
            tmp_path / f"store{counter['n']}.sqlite", max_entries=max_entries
        )
        return EvaluationCache(store=store)

    return factory


class TestEvaluationCache:
    def test_miss_then_hit(self, make_cache, spec, im_design):
        with DesignEvaluator(spec, EngineConfig(use_cache=False)) as evaluator:
            priced = evaluator.evaluate(im_design)
        cache = make_cache()
        found, _ = cache.lookup(b"a")
        assert not found
        cache.store(b"a", priced)
        found, outcome = cache.lookup(b"a")
        assert found and outcome is priced
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert stats.hit_rate == 0.5

    def test_invalid_verdict_is_cached(self, make_cache):
        cache = make_cache()
        cache.store(b"bad", None)
        found, outcome = cache.lookup(b"bad")
        assert found and outcome is None

    def test_lru_eviction(self, make_cache):
        cache = make_cache(max_entries=2)
        cache.store(b"a", None)
        cache.store(b"b", None)
        cache.lookup(b"a")  # refresh "a"; "b" becomes LRU
        cache.store(b"c", None)
        assert cache.lookup(b"a")[0]
        assert not cache.lookup(b"b")[0]
        assert cache.lookup(b"c")[0]
        assert len(cache) == 2

    def test_bad_max_entries_rejected(self, make_cache):
        with pytest.raises(ValueError):
            make_cache(max_entries=0)


@pytest.fixture(params=["memory", "sqlite"])
def engine_config(request, tmp_path):
    """Engine-level backend selection (the --cache-store switch)."""
    if request.param == "memory":
        return EngineConfig()
    return EngineConfig(
        cache_store="sqlite", cache_path=str(tmp_path / "engine.sqlite")
    )


class TestEngineCaching:
    def test_repeat_evaluation_hits(self, spec, im_design, engine_config):
        with DesignEvaluator(spec, engine_config) as evaluator:
            first = evaluator.evaluate(im_design)
            second = evaluator.evaluate(im_design)
            assert first is second
            assert evaluator.evaluations == 2
            assert evaluator.cache_hits == 1
            assert evaluator.cache_misses == 1

    def test_copies_share_cache_entry(self, spec, im_design, engine_config):
        with DesignEvaluator(spec, engine_config) as evaluator:
            first = evaluator.evaluate(im_design)
            second = evaluator.evaluate(im_design.copy())
            assert first is second
            assert evaluator.cache_hits == 1

    def test_invalid_candidates_cached(self, spec, im_design, engine_config):
        # An overloaded single-node mapping that cannot meet deadlines
        # still gets its (None) verdict memoized.
        with DesignEvaluator(spec, engine_config) as evaluator:
            evaluator.evaluate(im_design)
            move = None
            for proc in spec.current.processes:
                others = [
                    n
                    for n in proc.allowed_nodes
                    if n != im_design.mapping.node_of(proc.id)
                ]
                if others:
                    move = RemapProcess(proc.id, others[0])
                    break
            assert move is not None
            mutated = move.apply(im_design)
            a = evaluator.evaluate(mutated)
            b = evaluator.evaluate(mutated)
            assert a is b  # cached, whatever the verdict

    def test_batch_duplicate_hits_keep_lru_order(
        self, spec, im_design, engine_config
    ):
        """Regression: in-batch duplicates must refresh recency, so the
        duplicated entry survives eviction over an older distinct one."""
        move = None
        for proc in spec.current.processes:
            others = [
                n
                for n in proc.allowed_nodes
                if n != im_design.mapping.node_of(proc.id)
            ]
            if others:
                move = RemapProcess(proc.id, others[0])
                break
        assert move is not None
        other = move.apply(im_design)
        with DesignEvaluator(
            spec, engine_config, max_cache_entries=2
        ) as evaluator:
            # Batch: [A, B, A] -> stores A then B, then the duplicate
            # hit on A makes B the least recently used entry.
            evaluator.evaluate_many([im_design, other, im_design])
            assert evaluator.cache_misses == 2
            assert evaluator.cache_hits == 1
            cache = evaluator.engine.cache
            sig_a = evaluator.compiled.signature(im_design)
            sig_b = evaluator.compiled.signature(other)
            assert list(cache._store) == [sig_b, sig_a]

    def test_batch_accounting_matches_serial_lru_order(
        self, spec, im_design, engine_config, tmp_path
    ):
        """[A, A, B] must leave LRU order [A, B] -- exactly what three
        single evaluate() calls produce (A last used before B's store)."""
        move = None
        for proc in spec.current.processes:
            others = [
                n
                for n in proc.allowed_nodes
                if n != im_design.mapping.node_of(proc.id)
            ]
            if others:
                move = RemapProcess(proc.id, others[0])
                break
        assert move is not None
        other = move.apply(im_design)
        with DesignEvaluator(
            spec, engine_config, max_cache_entries=2
        ) as batched:
            batched.evaluate_many([im_design, im_design.copy(), other])
            batch_order = list(batched.engine.cache._store)
            batch_stats = (batched.cache_hits, batched.cache_misses)
        serial_config = engine_config
        if engine_config.cache_path:
            # A fresh database: the serial run must replay cold, not be
            # served by the batched run's rows.
            serial_config = replace(
                engine_config, cache_path=str(tmp_path / "serial.sqlite")
            )
        with DesignEvaluator(
            spec, serial_config, max_cache_entries=2
        ) as serial:
            for design in (im_design, im_design.copy(), other):
                serial.evaluate(design)
            serial_order = list(serial.engine.cache._store)
            serial_stats = (serial.cache_hits, serial.cache_misses)
        assert batch_order == serial_order
        assert batch_stats == serial_stats == (1, 2)

    def test_objectives_identical_cache_on_vs_off(self, spec):
        on = make_strategy("MH").design(spec)
        off = make_strategy("MH", engine=EngineConfig(use_cache=False)).design(spec)
        assert on.valid and off.valid
        assert on.objective == off.objective
        assert on.mapping.as_dict() == off.mapping.as_dict()
        assert on.priorities == off.priorities
        assert on.message_delays == off.message_delays
        assert off.cache_hits == 0 and off.cache_misses == 0

    def test_result_surfaces_cache_counters(self, spec):
        result = make_strategy("MH").design(spec)
        assert result.cache_misses > 0
        assert result.evaluations >= result.cache_hits + result.cache_misses

    def test_sa_counts_consistent(self, spec):
        result = make_strategy("SA", iterations=40, seed=9).design(spec)
        assert result.valid
        assert result.evaluations >= result.cache_hits + result.cache_misses
        assert result.cache_misses > 0
