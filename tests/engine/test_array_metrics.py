"""Equivalence suite for the array-native metric kernel.

The contract under test: :mod:`repro.core.array_metrics` prices a
finished :class:`~repro.sched.arrays.ArrayRunState` **byte-identically**
to the pinned object kernel pricing the decoded schedule -- every
metric value, the objective, and failure reporting match across all
registered scenario families, through chained delta generations (memo
reuse), and with the cache on or off.  Plus
the lazy-decode boundary: the hot path never builds an
object schedule and keeps no scheduler state,
:attr:`EvaluatedDesign.schedule` re-derives and decodes on demand, and
:meth:`ArraySpec.decode_schedule` refuses columnless states loudly.
"""

from __future__ import annotations

import functools
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracleutil import ObjectOracle, oracle_identity, production_identity
from moveutil import remap_moves
from repro.core.binpack import best_fit, best_fit_unplaced_total_hist
from repro.core.initial_mapping import InitialMapper
from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.array_metrics import (
    ArrayMetricsMemo,
    evaluate_state,
    evaluate_state_delta,
)
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.core.transformations import (
    CandidateDesign,
    DelayMessage,
    RemapProcess,
    SwapPriorities,
)
from repro.engine import EngineConfig, evaluate_candidate
from repro.engine.compiled_spec import CompiledSpec
from repro.engine.delta import DeltaEvaluator
from repro.engine.engine import EvaluationEngine
from repro.engine.evaluation import EvaluatedDesign
from repro.gen import families
from repro.sched.arrays import ArrayRunState, ArraySpec
from repro.sched.list_scheduler import ListScheduler


@functools.lru_cache(maxsize=32)
def _cell(family_name: str, seed: int = 1):
    """Spec, both compiled cores and the IM design of one family."""
    family = families.get_family(family_name)
    spec = family.build(family.smallest_preset, seed=seed).spec()
    compiled_obj = CompiledSpec(spec, engine_core="object")
    compiled_arr = CompiledSpec(spec, engine_core="array")
    scheduler = ListScheduler(spec.architecture)
    outcome = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled_obj
    )
    assert outcome is not None
    design = CandidateDesign(
        outcome[0], dict(compiled_obj.default_priorities)
    )
    return spec, compiled_obj, compiled_arr, scheduler, design


def _neighbourhood(spec, design, limit_delays: int = 6):
    """The design itself plus every remap, swaps and message delays."""
    pids = [p.id for p in spec.current.processes]
    moves = list(remap_moves(design.mapping, pids))
    moves.extend(SwapPriorities(a, b) for a, b in zip(pids, pids[1:]))
    moves.extend(
        DelayMessage(m.id, delta)
        for m in spec.current.messages[:limit_delays]
        for delta in (+1, -1)
    )
    return [design] + [m.apply(design) for m in moves]


# ----------------------------------------------------------------------
# cold equivalence: array metrics == object metrics on every family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family_name", families.family_names())
def test_cold_metrics_equal_object_kernel(family_name):
    """Values, objective and validity match over the IM neighbourhood."""
    spec, compiled_obj, compiled_arr, scheduler, design = _cell(family_name)
    arrays = compiled_arr.arrays
    compared = 0
    for child in _neighbourhood(spec, design):
        state = arrays.schedule_design(child, columns=True)
        cold = evaluate_candidate(spec, compiled_obj, scheduler, child)
        assert state.success == (cold is not None)
        if cold is None:
            continue
        metrics = evaluate_state(arrays, state, spec.future, spec.weights)
        assert metrics == cold.metrics
        compared += 1
    assert compared > 0


def test_failure_reasons_without_decode():
    """Invalid candidates report the object kernel's exact failure
    string straight from the columnless state -- no decode, no trace."""
    from repro.gen.scenario import ScenarioParams, build_scenario

    spec = build_scenario(
        ScenarioParams(n_existing=14, n_current=10, current_utilization=0.3),
        seed=4,
    ).spec()
    compiled = CompiledSpec(spec, engine_core="array")
    arrays = compiled.arrays
    scheduler = ListScheduler(spec.architecture)
    outcome = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    design = CandidateDesign(outcome[0], dict(compiled.default_priorities))
    failures = 0
    for child in _neighbourhood(spec, design, limit_delays=20):
        state = arrays.schedule_design(child)
        cold = scheduler.try_schedule(
            spec.current,
            child.mapping,
            priorities=child.priorities,
            message_delays=child.message_delays,
            compiled=compiled,
        )
        assert state.success == cold.success
        if cold.success:
            continue
        assert not state.columns, "hot-path state recorded trace columns"
        assert state.failure_reason == cold.failure_reason
        failures += 1
    assert failures > 0, "scenario produced no invalid children"


# ----------------------------------------------------------------------
# delta generations: memo chaining parent -> child -> grandchild
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family_name", families.family_names())
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_chained_delta_generations_stay_identical(family_name, data):
    """Random move chains reusing the parent memo at every generation
    price exactly like a cold object evaluation of the same design."""
    spec, compiled_obj, compiled_arr, scheduler, design = _cell(family_name)
    arrays = compiled_arr.arrays
    delta = DeltaEvaluator(compiled_arr, scheduler)
    parent = evaluate_candidate(
        spec, compiled_arr, scheduler, design, record_trace=True
    )
    assert parent is not None
    assert isinstance(parent.memo, ArrayMetricsMemo)
    pids = [p.id for p in spec.current.processes]
    messages = [m.id for m in spec.current.messages]
    current = parent
    for _ in range(data.draw(st.integers(1, 4), label="generations")):
        kind = data.draw(
            st.sampled_from(
                ["remap", "swap", "delay"] if messages else ["remap", "swap"]
            ),
            label="kind",
        )
        if kind == "remap":
            pid = data.draw(st.sampled_from(pids), label="pid")
            options = [
                n
                for n in spec.current.process(pid).allowed_nodes
                if n != current.design.mapping.node_of(pid)
            ]
            if not options:
                continue
            move = RemapProcess(
                pid, data.draw(st.sampled_from(options), label="node")
            )
        elif kind == "swap":
            if len(pids) < 2:
                continue
            first = data.draw(st.sampled_from(pids), label="first")
            second = data.draw(st.sampled_from(pids), label="second")
            if first == second:
                continue
            move = SwapPriorities(first, second)
        else:
            move = DelayMessage(
                data.draw(st.sampled_from(messages), label="message"),
                data.draw(st.sampled_from([1, -1]), label="delta"),
            )
        child = move.apply(current.design)
        out, _ = delta.evaluate_move(current, move, child)
        cold = evaluate_candidate(spec, compiled_obj, scheduler, child)
        assert (cold is None) == (out is None), move.describe()
        if cold is None:
            continue
        assert out.metrics == cold.metrics
        assert isinstance(out.memo, ArrayMetricsMemo)
        current = out


def test_clean_mask_reuse_matches_cold_pricing():
    """Pricing with the parent memo + clean mask equals cold pricing of
    the same state (the memo never leaks stale inputs)."""
    spec, compiled_obj, compiled_arr, scheduler, design = _cell("pipeline")
    arrays = compiled_arr.arrays
    parent_state = arrays.schedule_design(design, record=True)
    assert parent_state.success
    _, parent_memo = evaluate_state_delta(
        arrays, parent_state, spec.future, spec.weights
    )
    compared = 0
    for child in _neighbourhood(spec, design)[1:16]:
        state = arrays.schedule_design(child, columns=True)
        if not state.success:
            continue
        mask, bus_clean = arrays.clean_mask(state, parent_state)
        with_memo, _ = evaluate_state_delta(
            arrays,
            state,
            spec.future,
            spec.weights,
            parent_memo=parent_memo,
            clean_mask=mask,
            bus_clean=bus_clean,
        )
        cold, _ = evaluate_state_delta(arrays, state, spec.future, spec.weights)
        assert with_memo == cold
        compared += 1
    assert compared > 0


# ----------------------------------------------------------------------
# engine-level determinism: cache on/off against the object core
# ----------------------------------------------------------------------
def _engine_metrics(spec, design, moves, engine):
    parent = engine.evaluate(design)
    children = [move.apply(parent.design) for move in moves]
    outcomes = engine.evaluate_many(children)
    return [o.metrics if o is not None else None for o in outcomes]


def test_engine_variants_price_identically():
    """The engine with the cache on and off returns the object core's
    metric lists."""
    spec, compiled_obj, compiled_arr, scheduler, design = _cell(
        "uniform-baseline"
    )
    pids = [p.id for p in spec.current.processes]
    moves = list(remap_moves(design.mapping, pids))[:20]
    reference = _engine_metrics(spec, design, moves, ObjectOracle(spec))
    for config in (EngineConfig(), EngineConfig(use_cache=False)):
        with EvaluationEngine(spec, config) as engine:
            assert _engine_metrics(spec, design, moves, engine) == reference


class TestSeededStrategyByteIdentity:
    """Seeded searches land on the same design, after the same number
    of evaluations, under either core -- i.e. the array metric path
    never perturbs a single comparison."""

    def test_mh(self):
        family = families.get_family("hetero-mixed")
        spec = family.build(family.smallest_preset, seed=2).spec()
        assert oracle_identity(
            MappingHeuristic(), spec
        ) == production_identity(MappingHeuristic(), spec)

    def test_sa(self):
        family = families.get_family("bursty")
        spec = family.build(family.smallest_preset, seed=1).spec()

        def strategy():
            return SimulatedAnnealing(iterations=100, seed=7)

        assert oracle_identity(strategy(), spec) == production_identity(
            strategy(), spec
        )


# ----------------------------------------------------------------------
# histogram best-fit == reference best-fit
# ----------------------------------------------------------------------
class TestHistPacking:
    def _runs(self, objects):
        ordered = sorted(objects, reverse=True)
        runs = []
        for size in ordered:
            if runs and runs[-1][0] == size:
                runs[-1] = (size, runs[-1][1] + 1)
            else:
                runs.append((size, 1))
        return ordered, runs

    @given(
        objects=st.lists(st.integers(1, 40), min_size=0, max_size=30),
        bins=st.lists(st.integers(0, 60), min_size=0, max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_best_fit(self, objects, bins):
        ordered, runs = self._runs(objects)
        hist: dict = {}
        for cap in bins:
            hist[cap] = hist.get(cap, 0) + 1
        expected = best_fit(ordered, bins).unplaced_total if objects else 0
        frozen = dict(hist)
        assert best_fit_unplaced_total_hist(runs, hist) == expected
        assert hist == frozen, "consume=False mutated the input histogram"
        assert (
            best_fit_unplaced_total_hist(runs, hist, consume=True) == expected
        )

    def test_remainder_classes_chain(self):
        """Remainder bins re-enter later (smaller-size) runs."""
        # 3 bins of 10: the 7s drain them to 3s, which then host the 3s.
        runs = [(7, 3), (3, 4)]
        assert best_fit_unplaced_total_hist(runs, {10: 3}) == (
            best_fit([7, 7, 7, 3, 3, 3, 3], [10, 10, 10]).unplaced_total
        )


# ----------------------------------------------------------------------
# the lazy-decode boundary
# ----------------------------------------------------------------------
def _spy_kernel(monkeypatch):
    """Record every state :meth:`ArraySpec.run_kernel` runs from now on."""
    states = []
    run_kernel = ArraySpec.run_kernel

    def spy(self, st):
        states.append(st)
        run_kernel(self, st)

    monkeypatch.setattr(ArraySpec, "run_kernel", spy)
    return states


class TestLazyDecode:
    def _outcome(self, record_trace: bool = False):
        spec, compiled_obj, compiled_arr, scheduler, design = _cell(
            "uniform-baseline"
        )
        outcome = evaluate_candidate(
            spec, compiled_arr, scheduler, design, record_trace=record_trace
        )
        assert outcome is not None
        return spec, compiled_obj, compiled_arr, scheduler, design, outcome

    def test_hot_path_skips_decode_and_columns(self, monkeypatch):
        """The hot path runs one columnless pass, decodes nothing and
        keeps no scheduler state: the outcome holds its design, its
        metrics and the compiled spec to re-derive against."""
        states = _spy_kernel(monkeypatch)
        _, _, compiled_arr, _, _, outcome = self._outcome()
        assert [st.columns for st in states] == [False]
        assert outcome._schedule is None
        assert outcome.trace is None and outcome.memo is None
        assert outcome._compiled is compiled_arr
        assert not any(
            isinstance(ref, ArrayRunState) for ref in gc.get_referents(outcome)
        )

    def test_lazy_schedule_equals_eager_object_schedule(self):
        spec, compiled_obj, _, scheduler, design, outcome = self._outcome()
        eager = evaluate_candidate(spec, compiled_obj, scheduler, design)
        lazy = outcome.schedule
        assert outcome._schedule is lazy, "decode was not cached"
        assert {
            nid: sorted(
                (e.process_id, e.instance, e.start, e.end)
                for e in lazy.entries_on(nid)
            )
            for nid in lazy.architecture.node_ids
        } == {
            nid: sorted(
                (e.process_id, e.instance, e.start, e.end)
                for e in eager.schedule.entries_on(nid)
            )
            for nid in eager.schedule.architecture.node_ids
        }

    def test_traced_state_decodes_without_rerun(self, monkeypatch):
        """A record_trace outcome keeps its trace, which has columns;
        decode must not re-run the pass (the decoded schedule comes
        from that trace)."""
        _, _, compiled_arr, _, _, outcome = self._outcome(record_trace=True)
        assert outcome.trace.columns
        states = _spy_kernel(monkeypatch)
        schedule = outcome.schedule
        assert states == []
        assert schedule is outcome._schedule  # decoded and cached

    def test_decode_schedule_refuses_columnless_states(self):
        spec, _, compiled_arr, scheduler, design, _ = self._outcome()
        arrays = compiled_arr.arrays
        state = arrays.schedule_design(design)  # hot path: no columns
        assert state.success and not state.columns
        with pytest.raises(ValueError, match="columnless"):
            arrays.decode_schedule(state)

    def test_constructor_refuses_scheduleless_without_state(self):
        _, _, _, _, _, outcome = self._outcome()
        with pytest.raises(ValueError, match="schedule or a compiled spec"):
            EvaluatedDesign(outcome.design, None, outcome.metrics)
