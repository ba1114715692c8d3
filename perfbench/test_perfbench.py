"""Tests of the benchmark's own logic (no system run needed).

    python3 -m pytest perfbench -q
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import run
from spans import LAYERS, ROOT_SPAN, Tracer, fold, self_times

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def _spans(rows):
    """rows: (name, start, end, parent) -> Tracer-like numpy columns."""
    names = sorted({r[0] for r in rows})
    return (
        names,
        np.array([names.index(r[0]) for r in rows]),
        np.array([r[1] for r in rows]),
        np.array([r[2] for r in rows]),
        np.array([r[3] for r in rows]),
    )


# root 0..100 > a 10..60 > b 20..30, b 35..45 ; c 70..90 > a 75..80
NESTED = [
    (ROOT_SPAN, 0, 100, -1),
    ("a", 10, 60, 0),
    ("b", 20, 30, 1),
    ("b", 35, 45, 1),
    ("c", 70, 90, 0),
    ("a", 75, 80, 4),
]


def test_self_time_subtracts_direct_children_only():
    _, _, start, end, parent = _spans(NESTED)
    own = self_times(start, end, parent)
    assert own.tolist() == [30, 30, 10, 10, 15, 5]


def test_budget_closes_on_other():
    names, name, start, end, parent = _spans(NESTED)
    layers = fold(names, name, start, end, parent, total_ns=100)
    assert layers == pytest.approx(
        {"a_s": 35e-9, "b_s": 20e-9, "c_s": 15e-9, "other_s": 30e-9}
    )
    assert sum(layers.values()) == pytest.approx(100e-9)


def test_budget_closes_on_recorded_spans():
    tracer = Tracer()
    with tracer.span(ROOT_SPAN, 1):
        for _ in range(3):
            idx = tracer.open(tracer.name_id("x"))
            inner = tracer.open(tracer.name_id("y"))
            tracer.close(inner)
            tracer.close(idx)
    name, start, end, parent, _ = tracer.arrays()
    total = float((end - start)[parent < 0].sum())
    layers = fold(tracer.names, name, start, end, parent, total)
    assert sum(layers.values()) == pytest.approx(total / 1e9, rel=1e-9)
    assert min(layers.values()) >= 0


def test_wrapper_records_counts_and_restores():
    class Owner:
        def work(self, n):
            return list(range(n))

    tracer = Tracer()
    original = Owner.__dict__["work"]
    tracer.wrap(Owner, "work", "w", after=lambda t, r, a: t.count("n", len(r)))
    tracer.active = True
    assert Owner().work(3) == [0, 1, 2]
    tracer.active = False
    Owner().work(5)  # inactive: not recorded
    assert len(tracer) == 1 and tracer.counters == {"n": 3}
    tracer.uninstall()
    assert Owner.__dict__["work"] is original


def _outcome(phase, key, fp):
    return run.Outcome(phase, key, 1.0, 1.0, 10, fingerprint=fp)


REFS = {
    "f/1/AH": "a1",
    "f/1/MH": "m1",
    "f/1/SA": "s1",
    "f/2/AH": "invalid",
    "f/2/SA": "invalid",
    "race": "r1",
}


def _pass(sa="s1", race="r1", sharded="r1"):
    return [
        _outcome("sweep", "f/1/AH", "a1"),
        _outcome("sweep", "f/1/MH", "m1"),
        _outcome("sweep", "f/1/SA", sa),
        _outcome("sweep", "f/2/AH", "invalid"),
        _outcome("sweep", "f/2/SA", "invalid"),
        _outcome("race-lockstep", "race", race),
        _outcome("race-sharded", "race", sharded),
        _outcome("store-cold", "f/1/SA", sa),
        _outcome("store-warm", "f/1/SA", sa),
    ]


def test_reference_pass_is_correct_and_counts_infeasible_cells():
    outcomes = _pass()
    wrong, problems = run.check([outcomes], REFS, run.DEFAULT_SEED)
    assert not wrong and not problems
    assert run.failed_share(outcomes, wrong) == pytest.approx(2 / 9)


def test_perturbed_fingerprint_is_a_failure():
    outcomes = _pass()
    outcomes[1].fingerprint = "m1-perturbed"
    wrong, problems = run.check([outcomes], REFS, run.DEFAULT_SEED)
    assert wrong == [outcomes[1]] and len(problems) == 1
    assert run.failed_share(outcomes, wrong) == pytest.approx(3 / 9)


def test_other_seed_checks_consistency_not_sa_references():
    seed = run.DEFAULT_SEED + 1
    assert run.check([_pass(sa="s9", race="r9", sharded="r9")], REFS, seed) == ([], [])
    wrong, _ = run.check([_pass(sa="s9", race="r9", sharded="r8")], REFS, seed)
    assert [o.phase for o in wrong] == ["race-sharded"]
    # traced vs untraced: the second pass must repeat the first
    wrong, _ = run.check([_pass(sa="s9"), _pass(sa="s8")], REFS, seed)
    assert {o.phase for o in wrong} == {"sweep", "store-cold", "store-warm"}


def test_error_and_lost_validity_are_failures():
    outcomes = _pass()
    outcomes[0] = run.Outcome("sweep", "f/1/AH", 0.0, 0.0, error="boom")
    outcomes[2].fingerprint = "invalid"
    wrong, _ = run.check([outcomes], REFS, run.DEFAULT_SEED + 1)
    assert outcomes[0] in wrong and outcomes[2] in wrong


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_end_to_end_names_match_benchmark_json():
    setups = [[_outcome("setup", "f/1/build", "")]]
    metrics, notes = run.end_to_end(setups, [_pass()], 0.25)
    assert {k: u for k, (_, u) in metrics.items()} == _declared("end_to_end")
    assert set(notes) == set(metrics)
    assert all(NAME.match(k) for k in metrics)


def test_per_layer_names_match_benchmark_json():
    tracer = run.new_tracer()
    with tracer.span(ROOT_SPAN, 1):
        pass
    traced = _pass()
    for o in traced:
        o.extra["coord_cpu_s"] = 0.1
    metrics = run.per_layer(tracer, _pass(), traced)
    assert {k: u for k, (_, u) in metrics.items()} == _declared("per_layer")
    assert all(NAME.match(k) for k in metrics)
    assert {f"{layer.name}_s" for layer in LAYERS} <= set(metrics)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert all(NAME.match(w) for w in run.WORKLOADS)
