"""Tests for the persistent result store: round trips, degradation,
the not-found vs cached-invalid distinction, and engine integration."""

import json
import sqlite3
import warnings

import pytest

from repro.core.initial_mapping import InitialMapper
from repro.core.strategy import DesignEvaluator, make_strategy
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
        found, warm = reader.get(signature, im_design)
        assert found
        assert warm.metrics == cold.metrics
        # A hit is served with the caller's own design.
        assert warm.design is im_design
        # The lazily re-derived schedule equals the cold one exactly.
        assert _schedule_json(warm) == _schedule_json(cold)
        assert reader.stats().hits == 1
        reader.close()

    def test_invalid_verdict_distinct_from_not_found(
        self, spec, compiled, im_design, tmp_path
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
        delayed = CandidateDesign(
            im_design.mapping,
            im_design.priorities,
            {spec.current.messages[0].id: 1},
        )
        assert reader.get(compiled.signature(delayed)) == (False, None)
        assert reader.stats().hits == 1
        assert reader.stats().misses == 1
        reader.close()

    def test_only_engine_outcomes_are_stored(self, tmp_path):
        """A row holds an EvaluatedDesign or the invalid verdict; any
        other outcome is refused before it reaches either tier."""
        store = SqliteResultStore(tmp_path / "store.sqlite")
        with pytest.raises(TypeError, match="EvaluatedDesign or None"):
            store.put(b"k", {"value": 42})
        assert store.get(b"k") == (False, None)
        store.close()

    def test_scenarios_are_isolated(self, tmp_path):
        path = tmp_path / "store.sqlite"
        a = SqliteResultStore(path, scenario="scenario-a")
        b = SqliteResultStore(path, scenario="scenario-b", read_only=False)
        a.put(b"k", None)
        a.close()
        assert b.get(b"k") == (False, None)
        b.close()
        again = SqliteResultStore(path, scenario="scenario-a")
        assert again.get(b"k") == (True, None)
        again.close()

    def test_commit_is_the_visibility_boundary(self, tmp_path):
        """Buffered rows become durable (and visible to other
        connections) only at commit, in one batch."""
        path = tmp_path / "store.sqlite"
        writer = SqliteResultStore(path)
        writer.put(b"a", None)
        writer.put(b"b", None)
        assert writer.stats().writes == 0
        reader = SqliteResultStore(path, read_only=True)
        assert reader.get(b"a") == (False, None)
        writer.commit()
        assert writer.stats().writes == 2
        assert reader.get(b"a") == (True, None)
        assert reader.get(b"b") == (True, None)
        reader.close()
        writer.close()

    def test_lru_eviction_mirrors_to_database(self, tmp_path):
        """An entry the resident LRU evicts must miss after a restart
        too -- within-run and across-run views stay consistent."""
        path = tmp_path / "store.sqlite"
        store = SqliteResultStore(path, max_entries=1)
        store.put(b"a", None)
        store.put(b"b", None)  # evicts "a" from both tiers
        store.close()
        reopened = SqliteResultStore(path)
        assert reopened.get(b"a") == (False, None)
        assert reopened.get(b"b") == (True, None)
        reopened.close()

    def test_clear_scopes_to_scenario(self, tmp_path):
        path = tmp_path / "store.sqlite"
        mine = SqliteResultStore(path, scenario="mine")
        other = SqliteResultStore(path, scenario="other", read_only=False)
        mine.put(b"k", None)
        mine.commit()
        other.put(b"k", None)
        other.commit()
        other.close()
        mine.clear()
        mine.close()
        assert SqliteResultStore(path, scenario="mine").get(b"k") == (
            False, None,
        )
        assert SqliteResultStore(path, scenario="other").get(b"k") == (
            True, None,
        )

    def test_corrupt_file_degrades_loudly_to_memory(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is not a sqlite database at all")
        with pytest.warns(RuntimeWarning, match="memory-only"):
            store = SqliteResultStore(path)
        assert not store.persistent
        # Memory-only semantics keep working.
        store.put(b"k", None)
        assert store.get(b"k") == (True, None)
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
        writer.put(b"a", None)
        writer.close()
        reader = SqliteResultStore(path, read_only=True)
        assert reader.get(b"a") == (True, None)
        reader.put(b"b", None)  # resident tier only
        reader.commit()
        assert reader.stats().writes == 0
        reader.close()
        fresh = SqliteResultStore(path)
        assert fresh.get(b"b") == (False, None)
        fresh.close()

    def test_read_only_view_buffers_rows_for_drain(self, tmp_path):
        """Every read-only view keeps its new rows across commits until
        drained; the read-write store persists what it absorbs."""
        path = tmp_path / "store.sqlite"
        SqliteResultStore(path).close()
        view = SqliteResultStore(path, read_only=True)
        view.put(b"a", None)
        view.put(b"b", None)
        view.commit()
        rows = view.drain_rows()
        assert rows == [(b"a", b"I"), (b"b", b"I")]
        assert view.drain_rows() == []
        view.close()
        writer = SqliteResultStore(path)
        writer.absorb_rows(rows)
        assert writer.stats().writes == 2
        writer.close()
        reader = SqliteResultStore(path)
        assert reader.get(b"a") == (True, None)
        assert reader.get(b"b") == (True, None)
        reader.close()

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


def _design_with_warnings(spec, **store):
    """An MH run plus every ``RuntimeWarning`` it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = make_strategy("MH", **store).design(spec)
    return result, [w for w in caught if w.category is RuntimeWarning]


class TestDegradedRuns:
    """A store that cannot serve its file degrades once, loudly, and the
    run still returns the design a cold run returns."""

    @pytest.mark.parametrize(
        "payload", [b"Egarbage", b"X" + bytes(56), b"I\x00"],
        ids=["short-record", "unknown-kind", "long-invalid"],
    )
    def test_corrupt_rows_degrade_and_resolve(self, spec, tmp_path, payload):
        path = str(tmp_path / "store.sqlite")
        store = {"cache_store": "sqlite", "cache_path": path}
        cold, cold_warnings = _design_with_warnings(spec, **store)
        assert cold.valid and not cold_warnings
        conn = sqlite3.connect(path)
        keys = conn.execute(
            "SELECT signature FROM results ORDER BY signature LIMIT 3"
        ).fetchall()
        assert len(keys) == 3
        conn.executemany(
            "UPDATE results SET payload = ? WHERE signature = ?",
            [(payload, key) for (key,) in keys],
        )
        conn.commit()
        conn.close()
        warm, warm_warnings = _design_with_warnings(spec, **store)
        assert len(warm_warnings) == 1
        assert "corrupt row" in str(warm_warnings[0].message)
        assert warm.design_identity() == cold.design_identity()
        assert warm.evaluations == cold.evaluations
        # The corrupt probe counted as a miss and was solved again.
        assert warm.store_misses == 1

    def test_v1_file_degrades_with_schema_warning(self, spec, tmp_path):
        """A file from the JSON-row layout (schema version 1) is never
        misread: the run warns once and designs from scratch."""
        path = str(tmp_path / "store.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE results (scenario TEXT NOT NULL, signature TEXT "
            "NOT NULL, payload BLOB NOT NULL, "
            "PRIMARY KEY (scenario, signature))"
        )
        conn.execute("INSERT INTO meta VALUES ('schema_version', '1')")
        conn.commit()
        conn.close()
        cold = make_strategy("MH").design(spec)
        warm, caught = _design_with_warnings(
            spec, cache_store="sqlite", cache_path=path
        )
        assert len(caught) == 1
        assert "schema version 1" in str(caught[0].message)
        assert warm.design_identity() == cold.design_identity()
        assert warm.store_hits == warm.store_writes == 0
