"""Benchmarks pinning the end-to-end array evaluation speedup.

Per uniform-baseline preset (tiny/small/medium), one MH-style
neighbourhood of the Initial-Mapping design is *fully evaluated* --
scheduling pass plus metric pricing, the complete per-candidate cost a
search loop pays -- three ways:

* **array** -- :func:`repro.engine.evaluation.evaluate_candidate` under
  the array core: columnless structure-of-arrays pass, metrics priced
  directly on the state's columns (:mod:`repro.core.array_metrics`),
  **no** object-schedule decode (what every engine runs per candidate
  since the array-native metric kernel);
* **object** -- the same function under the pinned object core:
  ``ListScheduler.try_schedule`` plus the object metric kernel (the
  reference the tests compare against);
* **decode-always** -- the pre-array-metrics shape of the array core:
  the array pass with trace columns, an object-schedule decode per
  candidate, and the object metric kernel over the decoded schedule.

The headline number is the per-candidate median speedup of the array
path over decode-always on the medium preset -- the end-to-end gain of
keeping evaluation inside the flat representation.  The medium
benchmark asserts ``MIN_EVAL_SPEEDUP`` even under
``--benchmark-disable``, so the CI smoke run catches an evaluation
path that silently loses its edge.

Results land in the repo-root ``BENCH_eval.json`` (see conftest).

Run:  pytest benchmarks/bench_eval.py --benchmark-only
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.core.initial_mapping import InitialMapper
from repro.core.metrics import evaluate_design
from repro.core.transformations import CandidateDesign
from repro.engine import CompiledSpec, evaluate_candidate
from repro.gen import families
from repro.sched.list_scheduler import ListScheduler
from repro.search.proposers import generate_moves

#: Uniform-baseline presets benchmarked, smallest to largest.
BENCH_PRESETS = ("tiny", "small", "medium")

#: CI floor: the array evaluation path must stay at least this many
#: times faster per candidate than the decode-always shape on the
#: medium preset (measured ~3.4x at introduction; the margin absorbs
#: scheduler noise on busy CI machines -- the committed
#: ``BENCH_eval.json`` from a quiet timed run is the >=3x record).
MIN_EVAL_SPEEDUP = 2.5

_CONTEXTS: dict = {}


def _context(preset: str):
    """Scenario, kernels and neighbourhood of one preset (built once)."""
    if preset in _CONTEXTS:
        return _CONTEXTS[preset]
    family = families.get_family("uniform-baseline")
    scenario = family.build(preset, seed=1)
    spec = scenario.spec()
    compiled_array = CompiledSpec(spec, engine_core="array")
    compiled_object = CompiledSpec(spec, engine_core="object")
    arrays = compiled_array.arrays
    scheduler = ListScheduler(spec.architecture)
    mapper = InitialMapper(spec.architecture)
    mapping, _ = mapper.try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled_array
    )
    parent = evaluate_candidate(
        spec,
        compiled_array,
        scheduler,
        CandidateDesign(mapping, dict(compiled_array.default_priorities)),
        record_trace=True,
    )
    moves = generate_moves(spec, parent, pool_size=8)
    children = [move.apply(parent.design) for move in moves]
    context = (spec, compiled_array, compiled_object, arrays, scheduler, children)
    _CONTEXTS[preset] = context
    return context


def _evaluate_array(spec, compiled_array, scheduler, child):
    return evaluate_candidate(spec, compiled_array, scheduler, child)


def _evaluate_object(spec, compiled_object, scheduler, child):
    return evaluate_candidate(spec, compiled_object, scheduler, child)


def _evaluate_decode_always(spec, arrays, child):
    state = arrays.schedule_design(child, record=False, columns=True)
    if not state.success:
        return None
    schedule = arrays.decode_schedule(state)
    return evaluate_design(schedule, spec.future, spec.weights)


def _per_candidate(fn, items, repeats: int = 7):
    """Median per-item wall time of ``fn`` over ``items``.

    One untimed warm-up pass precedes the measurement so caches
    (allocator pools, memoized packing inputs, lazy imports) are hot in
    smoke runs too, where no benchmark rounds ran before this.
    """
    for item in items:
        fn(item)
    times = []
    for item in items:
        best = min(_timed_once(fn, item) for _ in range(repeats))
        times.append(best)
    return statistics.median(times)


def _timed_once(fn, item):
    start = time.perf_counter()
    fn(item)
    return time.perf_counter() - start


def _speedup_info(preset: str):
    """Per-candidate medians and speedups for ``extra_info``."""
    spec, compiled_array, compiled_object, arrays, scheduler, children = (
        _context(preset)
    )
    median_array = _per_candidate(
        lambda child: _evaluate_array(spec, compiled_array, scheduler, child),
        children,
    )
    median_object = _per_candidate(
        lambda child: _evaluate_object(
            spec, compiled_object, scheduler, child
        ),
        children,
    )
    median_decode = _per_candidate(
        lambda child: _evaluate_decode_always(spec, arrays, child), children
    )
    return {
        "n_candidates": len(children),
        "median_array_us": round(median_array * 1e6, 1),
        "median_object_us": round(median_object * 1e6, 1),
        "median_decode_always_us": round(median_decode * 1e6, 1),
        "speedup_vs_object": round(median_object / median_array, 2),
        "speedup_vs_decode_always": round(median_decode / median_array, 2),
    }


@pytest.mark.parametrize("preset", BENCH_PRESETS)
def test_array_evaluation(benchmark, preset):
    """The array evaluation path over one neighbourhood, end to end."""
    spec, compiled_array, compiled_object, arrays, scheduler, children = (
        _context(preset)
    )

    def run():
        ok = 0
        for child in children:
            ok += (
                _evaluate_array(spec, compiled_array, scheduler, child)
                is not None
            )
        return ok

    benchmark(run)
    info = _speedup_info(preset)
    benchmark.extra_info["eval_record"] = "array"
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["scenario_jobs"] = compiled_array.total_jobs
    benchmark.extra_info.update(info)
    if preset == "medium":
        assert info["speedup_vs_decode_always"] >= MIN_EVAL_SPEEDUP, (
            "array evaluation lost its edge: "
            f"{info['speedup_vs_decode_always']:.2f}x over decode-always "
            f"< {MIN_EVAL_SPEEDUP}x on medium"
        )


@pytest.mark.parametrize("preset", BENCH_PRESETS)
def test_object_evaluation(benchmark, preset):
    """The same neighbourhood through the pinned object core."""
    spec, compiled_array, compiled_object, arrays, scheduler, children = (
        _context(preset)
    )

    def run():
        for child in children:
            _evaluate_object(spec, compiled_object, scheduler, child)

    benchmark(run)
    benchmark.extra_info["eval_record"] = "object"
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["scenario_jobs"] = compiled_object.total_jobs


@pytest.mark.parametrize("preset", BENCH_PRESETS)
def test_decode_always_evaluation(benchmark, preset):
    """The pre-array-metrics shape: decode + object metrics per candidate."""
    spec, compiled_array, compiled_object, arrays, scheduler, children = (
        _context(preset)
    )

    def run():
        for child in children:
            _evaluate_decode_always(spec, arrays, child)

    benchmark(run)
    benchmark.extra_info["eval_record"] = "decode-always"
    benchmark.extra_info["preset"] = preset
    benchmark.extra_info["scenario_jobs"] = compiled_array.total_jobs
