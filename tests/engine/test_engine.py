"""Tests for the EvaluationEngine facade and strategy integration."""

import pytest

from oracleutil import design_through_oracle
from repro.core.adhoc import AdHocStrategy
from repro.core.improvement import DescentParams, descent_loop
from repro.core.initial_mapping import InitialMapper
from repro.core.strategy import DesignEvaluator, make_strategy
from repro.core.transformations import CandidateDesign, RemapProcess, SwapPriorities
from repro.engine import EngineConfig, EvaluationEngine
from repro.sched.priorities import hcp_priorities


@pytest.fixture(scope="module")
def neighbourhood(spec):
    """A batch of candidate designs around the IM starting point."""
    mapper = InitialMapper(spec.architecture)
    mapping, _ = mapper.try_map_and_schedule(
        spec.current, base=spec.base_schedule
    )
    start = CandidateDesign(
        mapping, hcp_priorities(spec.current, spec.architecture.bus)
    )
    designs = [start]
    processes = spec.current.processes
    for proc in processes[:4]:
        for node in proc.allowed_nodes:
            if node != mapping.node_of(proc.id):
                designs.append(RemapProcess(proc.id, node).apply(start))
    designs.append(
        SwapPriorities(processes[0].id, processes[-1].id).apply(start)
    )
    return start, designs


def _outcomes(results):
    return [None if r is None else r.objective for r in results]


class TestColdOutcomes:
    """A default evaluator solves every candidate cold and keeps no
    incremental bookkeeping on its outcomes: no scheduling trace, no
    metric memo, and an array state without trace columns."""

    @staticmethod
    def _assert_cold(outcomes):
        valid = [o for o in outcomes if o is not None]
        assert valid
        for outcome in valid:
            assert outcome.trace is None
            assert outcome.memo is None
            assert outcome._state is not None
            assert not outcome._state.columns
            assert not outcome._state.record

    def test_evaluate_and_evaluate_many(self, spec, neighbourhood):
        start, designs = neighbourhood
        with DesignEvaluator(spec) as evaluator:
            self._assert_cold([evaluator.evaluate(start)])
            self._assert_cold(evaluator.evaluate_many(designs))

    def test_search_loop_step(self, spec, neighbourhood):
        start, _ = neighbourhood
        steps = []
        with DesignEvaluator(spec) as evaluator:
            current = evaluator.evaluate(start)
            descent_loop(DescentParams(max_iterations=1)).run(
                spec,
                evaluator,
                start=current,
                observer=lambda event: steps.append(event.results),
            )
        assert len(steps) == 1
        self._assert_cold(steps[0])


class TestEvaluationEngine:
    def test_evaluate_counts(self, spec):
        with EvaluationEngine(spec) as engine:
            mapper = InitialMapper(spec.architecture)
            mapping, _ = mapper.try_map_and_schedule(
                spec.current, base=spec.base_schedule
            )
            design = CandidateDesign(
                mapping, hcp_priorities(spec.current, spec.architecture.bus)
            )
            out = engine.evaluate(design)
            assert out is not None and out.objective >= 0
            assert engine.evaluations == 1
            stats = engine.cache_stats()
            assert (stats.hits, stats.misses) == (0, 1)

    def test_cache_disabled_stats_zero(self, spec):
        with EvaluationEngine(spec, EngineConfig(use_cache=False)) as engine:
            stats = engine.cache_stats()
            assert (stats.hits, stats.misses, stats.entries) == (0, 0, 0)

    def test_facade_exposes_compiled(self, spec):
        with DesignEvaluator(spec) as evaluator:
            assert evaluator.compiled is evaluator.engine.compiled
            assert evaluator.compiled.total_jobs > 0


class TestEngineLifecycle:
    def test_close_is_sticky_and_idempotent(self, spec, neighbourhood):
        _, designs = neighbourhood
        engine = EvaluationEngine(spec)
        engine.evaluate_many(designs[:3])
        engine.close()
        engine.close()
        assert engine.closed
        with pytest.raises(RuntimeError, match="closed"):
            engine.evaluate_many(designs[:3])

    def test_closed_engine_refuses_evaluation(self, spec, neighbourhood):
        _, designs = neighbourhood
        evaluator = DesignEvaluator(spec)
        evaluator.evaluate(designs[0])
        evaluator.close()
        assert evaluator.engine.closed
        # A closed engine refuses every call -- even would-be cache
        # hits -- instead of quietly serving or recomputing.
        with pytest.raises(RuntimeError):
            evaluator.evaluate(designs[0])
        with pytest.raises(RuntimeError):
            evaluator.evaluate_many(designs)
        # Accounting stays readable after close (strategies record
        # statistics once the search has finished or failed).
        assert evaluator.evaluations == 1

    def test_engine_closed_when_strategy_raises_mid_search(
        self, spec, monkeypatch
    ):
        """A strategy failing mid-search must still close its engine."""
        import repro.core.mapping_heuristic as mh_module

        captured = {}
        original = DesignEvaluator

        class CapturingEvaluator(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured["evaluator"] = self

        def boom(*args, **kwargs):
            raise RuntimeError("mid-search failure")

        monkeypatch.setattr(mh_module, "DesignEvaluator", CapturingEvaluator)
        monkeypatch.setattr(mh_module, "descent_loop", boom)
        strategy = make_strategy("MH")
        with pytest.raises(RuntimeError, match="mid-search failure"):
            strategy.design(spec)
        assert captured["evaluator"].engine.closed


class TestEvaluateMany:
    def test_order_preserved_and_cached(self, spec, neighbourhood):
        _, designs = neighbourhood
        with DesignEvaluator(spec) as evaluator:
            batch = evaluator.evaluate_many(designs)
            singles = [evaluator.evaluate(d) for d in designs]
        assert _outcomes(batch) == _outcomes(singles)

    def test_duplicates_within_batch_scheduled_once(self, spec, neighbourhood):
        start, _ = neighbourhood
        with DesignEvaluator(spec) as evaluator:
            results = evaluator.evaluate_many([start, start.copy(), start])
            assert evaluator.evaluations == 3
            # One real scheduling pass; the duplicates count as hits so
            # evaluations == hits + misses stays an invariant.
            assert evaluator.cache_misses == 1
            assert evaluator.cache_hits == 2
            assert _outcomes(results)[0] is not None
            assert len(set(_outcomes(results))) == 1


class TestAdHocOnEngine:
    def test_ah_unchanged_by_engine_knobs(self, spec):
        plain = AdHocStrategy().design(spec)
        tuned = AdHocStrategy(engine=EngineConfig(use_cache=False)).design(spec)
        oracle, served = design_through_oracle(AdHocStrategy(), spec)
        assert plain.valid and tuned.valid and oracle.valid
        assert plain.design_identity() == tuned.design_identity()
        assert plain.design_identity() == oracle.design_identity()
        assert plain.evaluations == tuned.evaluations == oracle.evaluations == 1
        assert served.evaluations == 0  # IM is computed inline


class TestEngineCounters:
    def test_snapshot_and_subtraction(self, spec):
        from repro.core.initial_mapping import InitialMapper
        from repro.core.strategy import DesignEvaluator
        from repro.core.transformations import CandidateDesign
        from repro.engine import EngineCounters

        with DesignEvaluator(spec) as evaluator:
            mapper = InitialMapper(spec.architecture)
            mapping, _ = mapper.try_map_and_schedule(
                spec.current,
                base=spec.base_schedule,
                compiled=evaluator.compiled,
            )
            designs = [
                CandidateDesign(
                    mapping, dict(evaluator.compiled.default_priorities)
                )
                for _ in range(3)
            ]
            before = evaluator.counters()
            assert before == EngineCounters(0, 0, 0)
            evaluator.evaluate_many(designs)
            evaluator.evaluate_many(designs)  # second pass: pure cache hits
            after = evaluator.counters()
            window = after - before
            assert window.evaluations == 2 * len(designs)
            assert window.cache_hits >= len(designs)
            assert (
                window.cache_hits + window.cache_misses == window.evaluations
            )
        # Counters stay readable after close (stats recording).
        assert evaluator.counters() == after
