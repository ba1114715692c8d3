"""Benchmarks pinning the incremental (delta) evaluation speedup.

The delta kernel is off the production path: the engine solves every
candidate cold.  These benchmarks keep exercising it until the
benchmark of record stops tracing it.

Per scenario family (medium preset), one MH-style neighbourhood of the
Initial-Mapping design is evaluated three ways:

* **delta** -- through :class:`repro.engine.delta.DeltaEvaluator`:
  each child is rescheduled from the parent's trace checkpoints and
  its metrics reuse every clean resource;
* **cold** -- the engine's optimized full evaluation (what every
  search runs): compiled scheduling plus the memoized metric core,
  evaluated from scratch per candidate;
* **scratch** -- the pre-kernel evaluation shape: compiled scheduling
  plus the original from-scratch component metrics
  (``metric_c1p``/``metric_c1m``/``metric_c2p``/``metric_c2m``), i.e.
  a full rescheduling *and* full metric recomputation per candidate,
  with none of the kernel's reuse.  (The component functions keep
  their original implementations and are pinned to the fast core by
  ``tests/core/test_metrics.py``.)

The headline number is the per-candidate median speedup of delta over
scratch; delta over cold isolates what checkpoint resumes and dirty-set
metric reuse buy on top of the shared fast paths.  Each benchmark also
asserts a minimum delta hit rate, so CI's ``--benchmark-disable`` smoke
run catches a kernel that silently regresses to full rescheduling.

Run:  pytest benchmarks/bench_delta.py --benchmark-only
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.initial_mapping import InitialMapper
from repro.core.metrics import (
    metric_c1m,
    metric_c1p,
    metric_c2m,
    metric_c2p,
)
from repro.core.transformations import CandidateDesign
from repro.engine import CompiledSpec, DeltaEvaluator, evaluate_candidate
from repro.gen import families
from repro.sched.list_scheduler import ListScheduler
from repro.search.proposers import generate_moves

#: Families benchmarked at their medium preset.
BENCH_FAMILIES = (
    "uniform-baseline",
    "hetero-speed",
    "pipeline",
    "hetero-mixed",
)

#: Guard: at least this share of neighbourhood moves must go through
#: the incremental path (CI smoke fails if the kernel silently falls
#: back to full rescheduling).
MIN_DELTA_HIT_RATE = 0.5

_CONTEXTS: dict = {}


def _context(family_name: str):
    """Scenario, kernel and neighbourhood of one family (built once)."""
    if family_name in _CONTEXTS:
        return _CONTEXTS[family_name]
    family = families.get_family(family_name)
    # Medium preset; families without one benchmark their largest.
    preset = (
        "medium" if "medium" in family.preset_names else family.preset_names[-1]
    )
    scenario = family.build(preset, seed=1)
    spec = scenario.spec()
    compiled = CompiledSpec(spec, engine_core="object")
    scheduler = ListScheduler(spec.architecture)
    delta = DeltaEvaluator(compiled, scheduler)
    mapper = InitialMapper(spec.architecture)
    mapping, _ = mapper.try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    parent = evaluate_candidate(
        spec,
        compiled,
        scheduler,
        CandidateDesign(mapping, dict(compiled.default_priorities)),
        record_trace=True,
    )
    moves = generate_moves(spec, parent, pool_size=8)
    context = (spec, compiled, scheduler, delta, parent, moves, preset)
    _CONTEXTS[family_name] = context
    return context


def _scratch_evaluate(spec, compiled, scheduler, child):
    """Full rescheduling + from-scratch metrics (the pre-kernel shape)."""
    result = scheduler.try_schedule(
        spec.current,
        child.mapping,
        priorities=child.priorities,
        message_delays=child.message_delays,
        compiled=compiled,
    )
    if not result.success:
        return None
    schedule = result.schedule
    return (
        metric_c1p(schedule, spec.future),
        metric_c1m(schedule, spec.future),
        metric_c2p(schedule, spec.future),
        metric_c2m(schedule, spec.future),
    )


def _per_candidate(fn, items, repeats: int = 3):
    """Median per-item wall time of ``fn`` over ``items``."""
    times = []
    for item in items:
        best = min(
            _timed_once(fn, item) for _ in range(repeats)
        )
        times.append(best)
    return statistics.median(times)


def _timed_once(fn, item):
    start = time.perf_counter()
    fn(item)
    return time.perf_counter() - start


def _speedup_info(family_name):
    """Per-candidate medians and speedups for ``extra_info``."""
    spec, compiled, scheduler, delta, parent, moves, _ = _context(
        family_name
    )
    children = {move: move.apply(parent.design) for move in moves}
    median_delta = _per_candidate(
        lambda move: delta.evaluate_move(parent, move, children[move]), moves
    )
    median_cold = _per_candidate(
        lambda move: evaluate_candidate(
            spec, compiled, scheduler, children[move], record_trace=True
        ),
        moves,
    )
    median_scratch = _per_candidate(
        lambda move: _scratch_evaluate(
            spec, compiled, scheduler, children[move]
        ),
        moves,
    )
    return {
        "n_moves": len(moves),
        "median_delta_us": round(median_delta * 1e6, 1),
        "median_cold_us": round(median_cold * 1e6, 1),
        "median_scratch_us": round(median_scratch * 1e6, 1),
        "speedup_vs_scratch": round(median_scratch / median_delta, 2),
        "speedup_vs_cold": round(median_cold / median_delta, 2),
    }


@pytest.mark.parametrize("family_name", BENCH_FAMILIES)
def test_delta_neighbourhood(benchmark, family_name):
    """Incremental evaluation of one MH neighbourhood (delta on)."""
    spec, compiled, scheduler, delta, parent, moves, preset = _context(
        family_name
    )

    def run():
        hits = 0
        for move in moves:
            _, used = delta.evaluate_move(parent, move)
            hits += used
        return hits

    hits = benchmark(run)
    hit_rate = hits / len(moves)
    assert hit_rate >= MIN_DELTA_HIT_RATE, (
        f"delta kernel regressed to full rescheduling: hit rate "
        f"{hit_rate:.2f} < {MIN_DELTA_HIT_RATE}"
    )
    benchmark.extra_info["family"] = family_name
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["delta"] = "on"
    benchmark.extra_info["scenario_jobs"] = compiled.total_jobs
    benchmark.extra_info["delta_hit_rate"] = round(hit_rate, 3)
    benchmark.extra_info.update(_speedup_info(family_name))


@pytest.mark.parametrize("family_name", BENCH_FAMILIES)
def test_cold_neighbourhood(benchmark, family_name):
    """The same neighbourhood, full evaluation per candidate (delta off)."""
    spec, compiled, scheduler, delta, parent, moves, preset = _context(
        family_name
    )
    children = [move.apply(parent.design) for move in moves]

    def run():
        for child in children:
            evaluate_candidate(spec, compiled, scheduler, child)

    benchmark(run)
    benchmark.extra_info["family"] = family_name
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["delta"] = "off"
    benchmark.extra_info["scenario_jobs"] = compiled.total_jobs


@pytest.mark.parametrize("family_name", BENCH_FAMILIES)
def test_scratch_neighbourhood(benchmark, family_name):
    """The pre-kernel shape: full reschedule + from-scratch metrics."""
    spec, compiled, scheduler, delta, parent, moves, preset = _context(
        family_name
    )
    children = [move.apply(parent.design) for move in moves]

    def run():
        for child in children:
            _scratch_evaluate(spec, compiled, scheduler, child)

    benchmark(run)
    benchmark.extra_info["family"] = family_name
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["delta"] = "scratch-reference"
    benchmark.extra_info["scenario_jobs"] = compiled.total_jobs
