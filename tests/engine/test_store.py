"""Tests for the persistent result store: round trips, degradation,
the not-found vs cached-invalid distinction, and engine integration."""

import json
import sqlite3

import pytest

from repro.core.initial_mapping import InitialMapper
from repro.core.strategy import DesignEvaluator
from repro.core.transformations import CandidateDesign
from repro.engine.compiled_spec import CompiledSpec
from repro.engine.evaluation import evaluate_candidate
from repro.engine.store import (
    SCHEMA_VERSION,
    MemoryResultStore,
    SqliteResultStore,
    make_store,
)
from repro.sched.list_scheduler import ListScheduler
from repro.sched.priorities import hcp_priorities
from repro.serialize import schedule_to_dict


@pytest.fixture(scope="module")
def compiled(spec):
    return CompiledSpec(spec)


@pytest.fixture(scope="module")
def im_design(spec):
    mapper = InitialMapper(spec.architecture)
    mapping, _ = mapper.try_map_and_schedule(
        spec.current, base=spec.base_schedule
    )
    return CandidateDesign(
        mapping, hcp_priorities(spec.current, spec.architecture.bus)
    )


def _schedule_json(outcome):
    return json.dumps(schedule_to_dict(outcome.schedule), sort_keys=True)


class TestSqliteStore:
    def test_design_round_trip_across_instances(
        self, spec, compiled, im_design, tmp_path
    ):
        """A stored design is served back metrics-identical from a fresh
        process-like open, and its schedule re-derives byte-identically."""
        path = tmp_path / "store.sqlite"
        signature = compiled.signature(im_design)
        writer = SqliteResultStore(path, compiled=compiled)
        cold = evaluate_candidate(
            spec, compiled, ListScheduler(spec.architecture), im_design
        )
        assert cold is not None
        writer.put(signature, cold)
        writer.close()

        reader = SqliteResultStore(path, compiled=compiled)
        found, warm = reader.get(signature)
        assert found
        assert warm.metrics == cold.metrics
        assert warm.design.mapping.as_dict() == im_design.mapping.as_dict()
        assert dict(warm.design.priorities) == dict(im_design.priorities)
        # The lazily re-derived schedule equals the cold one exactly.
        assert _schedule_json(warm) == _schedule_json(cold)
        assert reader.stats().hits == 1
        reader.close()

    def test_invalid_verdict_distinct_from_not_found(
        self, compiled, im_design, tmp_path
    ):
        """``None`` is a first-class stored outcome: a warm open must
        report it as *found*, never as a miss to re-evaluate."""
        path = tmp_path / "store.sqlite"
        signature = compiled.signature(im_design)
        writer = SqliteResultStore(path, compiled=compiled)
        writer.put(signature, None)
        writer.close()

        reader = SqliteResultStore(path, compiled=compiled)
        found, outcome = reader.get(signature)
        assert found and outcome is None
        missing = (signature[0], signature[1], (("ghost", 1),))
        assert reader.get(missing) == (False, None)
        assert reader.stats().hits == 1
        assert reader.stats().misses == 1
        reader.close()

    def test_pickle_payloads_round_trip(self, tmp_path):
        path = tmp_path / "store.sqlite"
        writer = SqliteResultStore(path)
        writer.put(("k",), {"value": 42})
        writer.close()
        reader = SqliteResultStore(path)
        assert reader.get(("k",)) == (True, {"value": 42})
        reader.close()

    def test_scenarios_are_isolated(self, tmp_path):
        path = tmp_path / "store.sqlite"
        a = SqliteResultStore(path, scenario="scenario-a")
        b = SqliteResultStore(path, scenario="scenario-b", read_only=False)
        a.put(("k",), "from-a")
        a.close()
        assert b.get(("k",)) == (False, None)
        b.close()
        again = SqliteResultStore(path, scenario="scenario-a")
        assert again.get(("k",)) == (True, "from-a")
        again.close()

    def test_commit_is_the_visibility_boundary(self, tmp_path):
        """Buffered rows become durable (and visible to other
        connections) only at commit, in one batch."""
        path = tmp_path / "store.sqlite"
        writer = SqliteResultStore(path)
        writer.put(("a",), 1)
        writer.put(("b",), 2)
        assert writer.stats().writes == 0
        reader = SqliteResultStore(path, read_only=True)
        assert reader.get(("a",)) == (False, None)
        writer.commit()
        assert writer.stats().writes == 2
        assert reader.get(("a",)) == (True, 1)
        assert reader.get(("b",)) == (True, 2)
        reader.close()
        writer.close()

    def test_lru_eviction_mirrors_to_database(self, tmp_path):
        """An entry the resident LRU evicts must miss after a restart
        too -- within-run and across-run views stay consistent."""
        path = tmp_path / "store.sqlite"
        store = SqliteResultStore(path, max_entries=1)
        store.put(("a",), 1)
        store.put(("b",), 2)  # evicts "a" from both tiers
        store.close()
        reopened = SqliteResultStore(path)
        assert reopened.get(("a",)) == (False, None)
        assert reopened.get(("b",)) == (True, 2)
        reopened.close()

    def test_clear_scopes_to_scenario(self, tmp_path):
        path = tmp_path / "store.sqlite"
        mine = SqliteResultStore(path, scenario="mine")
        other = SqliteResultStore(path, scenario="other", read_only=False)
        mine.put(("k",), 1)
        mine.commit()
        other.put(("k",), 2)
        other.commit()
        other.close()
        mine.clear()
        mine.close()
        assert SqliteResultStore(path, scenario="mine").get(("k",)) == (
            False, None,
        )
        assert SqliteResultStore(path, scenario="other").get(("k",)) == (
            True, 2,
        )

    def test_corrupt_file_degrades_loudly_to_memory(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is not a sqlite database at all")
        with pytest.warns(RuntimeWarning, match="memory-only"):
            store = SqliteResultStore(path)
        assert not store.persistent
        # Memory-only semantics keep working.
        store.put(("k",), 7)
        assert store.get(("k",)) == (True, 7)
        store.commit()
        store.close()
        assert store.stats().writes == 0

    def test_schema_version_mismatch_degrades(self, tmp_path):
        path = tmp_path / "store.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.warns(RuntimeWarning, match="schema version"):
            store = SqliteResultStore(path)
        assert not store.persistent

    def test_read_only_missing_file_degrades(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="memory-only"):
            store = SqliteResultStore(
                tmp_path / "missing.sqlite", read_only=True
            )
        assert not store.persistent

    def test_read_only_never_writes(self, tmp_path):
        path = tmp_path / "store.sqlite"
        writer = SqliteResultStore(path)
        writer.put(("a",), 1)
        writer.close()
        reader = SqliteResultStore(path, read_only=True)
        assert reader.get(("a",)) == (True, 1)
        reader.put(("b",), 2)  # resident tier only
        reader.commit()
        assert reader.stats().writes == 0
        reader.close()
        fresh = SqliteResultStore(path)
        assert fresh.get(("b",)) == (False, None)
        fresh.close()

    def test_make_store_validation(self, compiled, tmp_path):
        assert isinstance(make_store("memory", None, compiled), MemoryResultStore)
        store = make_store(
            "sqlite", tmp_path / "store.sqlite", compiled
        )
        assert isinstance(store, SqliteResultStore)
        store.close()
        with pytest.raises(ValueError, match="requires a cache_path"):
            make_store("sqlite", None, compiled)
        with pytest.raises(ValueError, match="unknown cache_store"):
            make_store("redis", None, compiled)


class TestEngineStoreIntegration:
    def test_warm_restart_serves_from_store(self, spec, im_design, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with DesignEvaluator(
            spec, cache_store="sqlite", cache_path=path
        ) as cold_eval:
            cold = cold_eval.evaluate(im_design)
            assert cold_eval.store_hits == 0
            assert cold_eval.store_misses == 1
            assert cold_eval.store_writes >= 1
            cold_json = _schedule_json(cold)
        with DesignEvaluator(
            spec, cache_store="sqlite", cache_path=path
        ) as warm_eval:
            warm = warm_eval.evaluate(im_design)
            assert warm_eval.store_hits == 1
            assert warm_eval.store_misses == 0
            assert warm.metrics == cold.metrics
            assert _schedule_json(warm) == cold_json

    def test_invalid_verdict_survives_restart(self, spec, im_design, tmp_path):
        """Regression (not-found vs cached-invalid): an invalid design's
        ``None`` verdict must be served warm, not re-solved."""
        overloaded = None
        nodes = sorted(
            {n for p in spec.current.processes for n in p.allowed_nodes}
        )
        for node in nodes:
            candidate = CandidateDesign(
                im_design.mapping.copy(), dict(im_design.priorities)
            )
            for p in spec.current.processes:
                if node in p.allowed_nodes:
                    candidate.mapping.assign(p.id, node)
            with DesignEvaluator(spec, use_cache=False) as probe:
                if probe.evaluate(candidate) is None:
                    overloaded = candidate
                    break
        assert overloaded is not None, "no overloaded candidate found"
        path = str(tmp_path / "store.sqlite")
        with DesignEvaluator(
            spec, cache_store="sqlite", cache_path=path
        ) as cold_eval:
            assert cold_eval.evaluate(overloaded) is None
        with DesignEvaluator(
            spec, cache_store="sqlite", cache_path=path
        ) as warm_eval:
            assert warm_eval.evaluate(overloaded) is None
            assert warm_eval.store_hits == 1
            assert warm_eval.store_misses == 0

    def test_invalid_design_looked_up_twice_hits_cache(
        self, spec, im_design, store_kwargs_local
    ):
        """Regression: the second lookup of a cached-invalid design must
        be a cache hit (one miss total), not a silent re-evaluation."""
        mutated = CandidateDesign(
            im_design.mapping.copy(), dict(im_design.priorities)
        )
        with DesignEvaluator(spec, **store_kwargs_local) as evaluator:
            first = evaluator.evaluate(mutated)
            second = evaluator.evaluate(mutated)
            assert first is second or (first is None and second is None)
            assert evaluator.cache_misses == 1
            assert evaluator.cache_hits == 1


@pytest.fixture(params=["memory", "sqlite"])
def store_kwargs_local(request, tmp_path):
    if request.param == "memory":
        return {"cache_store": "memory"}
    return {
        "cache_store": "sqlite",
        "cache_path": str(tmp_path / "engine.sqlite"),
    }
