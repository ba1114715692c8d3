"""The compiled evaluation pass, pinned to the Python pass.

:mod:`repro.sched.native` runs the cold kernel -- straight from the
candidate's packed key -- and, for a cold best-fit
evaluation, the pass, its price and the objective mix in one call.
The Python kernel and pricing stay in src as the differential oracle:
on every registered family, presets ``tiny``/``small``/``medium`` and
seeds 1-3, a seeded stream of SA moves plus random priority (ties,
signed zeros, infinities, NaN, fractions) and delay changes must give
equal verdicts, failure strings, final busy runs and bus occupancy,
pop order and job starts, and bit-identical metrics; random float64
priority vectors must give the heap ranks of ``np.lexsort``; the C mix
must equal ``_mix`` bit for bit; and the scratch state's bus region
must hold the base occupancy after every call, whatever the pass's
outcome.  Plus the fallback
contract: without the module (no compiler, or a big-endian host) one
``RuntimeWarning`` is emitted and the seeded designs still reproduce,
and the loading process never imports the build toolchain.
"""

from __future__ import annotations

import collections
import functools
import json
import math
import os
import struct
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import array_metrics
from repro.core.array_metrics import _mix, evaluate_state
from repro.core.binpack import best_fit
from repro.core.future import FutureCharacterization
from repro.core.initial_mapping import InitialMapper
from repro.core.metrics import ObjectiveWeights
from repro.core.strategy import DesignSpec
from repro.core.transformations import CandidateDesign
from repro.engine import EvaluationEngine
from repro.engine.compiled_spec import CompiledSpec
from repro.engine.evaluation import evaluate_key
from repro.experiments.runner import strategy_for_family
from repro.gen import families
from repro.model.application import Application
from repro.model.architecture import Architecture, Node
from repro.model.mapping import Mapping
from repro.model.process_graph import Message, Process, ProcessGraph
from repro.sched import native, native_build
from repro.sched.arrays import ArrayRunState
from repro.search.proposers import random_move
from repro.tdma.bus import Slot, TdmaBus
from repro.utils.errors import MappingError

needs_native = pytest.mark.skipif(
    native.MODULE is None, reason="the compiled pass did not load"
)

PRESETS = ("tiny", "small", "medium")
SEEDS = (1, 2, 3)
STREAM = 40
#: Priorities whose heap order is easy to get wrong: signed zeros,
#: infinities, NaN (sorts after every number, ties with itself) and
#: fractions.
SPECIAL_PRIORITIES = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 0.5, -2.75, 5e-324, 1e308,
)
GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "search" / "golden_designs.json")
    .read_text()
)


def _cells():
    for name in families.family_names():
        presets = families.get_family(name).preset_names
        for preset in PRESETS:
            if preset in presets:
                yield name, preset


def _python_state(arrays, design) -> ArrayRunState:
    """The oracle: the Python loop on a cold state with columns, whose
    pop order and starts the compiled pass's two columns must equal."""
    st = arrays.fresh_state(
        arrays.lower_candidate(design), record=False, columns=True
    )
    arrays.run_kernel(st)
    return st


def _bits(metrics):
    """The seven fields in declaration order, floats as their bits."""
    return [
        value.hex() if isinstance(value, float) else value
        for value in metrics
    ]


def _kind(reason: str) -> str:
    for kind in ("misses its deadline", "does not fit inside the horizon"):
        if kind in reason:
            return kind
    return reason


def _child(spec, current, rng):
    """One step of the stream: an SA move, a random priority (an
    integer, a special value or another process's, for a tie) or a
    random message delay."""
    roll = rng.random()
    if roll < 0.6:
        here = types.SimpleNamespace(mapping=current.mapping, design=current)
        move = random_move(spec, here, rng)
        return current if move is None else move.apply(current)
    pids = [p.id for p in spec.current.processes]
    mids = [m.id for m in spec.current.messages]
    if roll < 0.8 or not mids:
        priorities = dict(current.priorities)
        pid = pids[rng.integers(len(pids))]
        if roll < 0.7:
            priorities[pid] = float(rng.integers(-500, 500))
        elif roll < 0.75:
            priorities[pid] = SPECIAL_PRIORITIES[
                rng.integers(len(SPECIAL_PRIORITIES))
            ]
        else:
            priorities[pid] = priorities.get(
                pids[rng.integers(len(pids))], 0.0
            )
        return CandidateDesign(
            current.mapping, priorities, dict(current.message_delays)
        )
    delays = dict(current.message_delays)
    delays[mids[rng.integers(len(mids))]] = int(rng.integers(0, 6))
    return CandidateDesign(current.mapping, current.priorities, delays)


def _assert_same_pass(fast, slow):
    assert isinstance(fast, native.NativeRunState)
    assert fast.success == slow.success
    assert fast.failure_reason == slow.failure_reason
    assert fast.scheduled == slow.scheduled
    assert fast.runs_s == slow.runs_s
    assert fast.runs_e == slow.runs_e
    assert np.array_equal(fast.bus_used, slow.bus_used)
    if fast.success:
        assert fast.pop_order == slow.pop_order
        assert fast.job_start == slow.job_start


def _assert_scratch_holds_base(arrays):
    """The scratch state's bus region equals the base occupancy."""
    context = arrays.kernel_context()
    k = context.ptr
    assert context.ffi.unpack(context.scratch + k.off_bus, k.n_occ) == (
        arrays.base_bus_used_flat.tolist()
    )


def _compare(spec, compiled, design, seed):
    """Walk a seeded stream through both passes; every schedulable
    candidate becomes the next position.  Each child's fused
    evaluation must be ``None`` or the Python pass's metrics, bit for
    bit.  Returns the outcome kinds."""
    arrays = compiled.arrays
    rng = np.random.default_rng(seed)
    kinds = collections.Counter()
    current = design
    for _ in range(STREAM):
        child = _child(spec, current, rng)
        fast = arrays.schedule_design(child)
        slow = _python_state(arrays, child)
        _assert_same_pass(fast, slow)
        fused = evaluate_key(
            arrays, spec.future, spec.weights, compiled.signature(child)
        )
        _assert_scratch_holds_base(arrays)
        if not slow.success:
            assert fused is None
            kinds[_kind(slow.failure_reason)] += 1
            continue
        kinds["ok"] += 1
        assert _bits(fused) == _bits(
            evaluate_state(arrays, slow, spec.future, spec.weights)
        )
        current = child
    return kinds


def _start(family_name, preset, seed):
    """``(spec, compiled, Initial Mapping design)``, or ``None`` when
    the scenario or its Initial Mapping does not schedule."""
    family = families.get_family(family_name)
    try:
        spec = family.build(preset, seed=seed).spec()
    except MappingError:
        return None
    compiled = CompiledSpec(spec)
    outcome = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    if outcome is None:
        return None
    design = CandidateDesign(outcome[0], dict(compiled.default_priorities))
    return spec, compiled, design


@functools.lru_cache(maxsize=None)
def _cell(family_name, preset, seed):
    start = _start(family_name, preset, seed)
    return None if start is None else _compare(*start, seed)


@functools.lru_cache(maxsize=None)
def _rank_start(preset):
    return _start("uniform-baseline", preset, 1)


#: One priority: any float64 (NaN, infinities, signed zeros,
#: subnormals and extremes among them), small integers for ties, or a
#: special value.
PRIORITY = st.one_of(
    st.floats(),
    st.integers(-3, 3).map(float),
    st.sampled_from(SPECIAL_PRIORITIES),
)


@needs_native
@pytest.mark.parametrize("preset", ["small", "paper-80"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compiled_ranks_equal_lexsort(preset, data):
    """The C kernel's heap ranks are ``np.lexsort``'s: NaN after every
    number, ties (``-0.0 == 0.0``, NaN against NaN, equal values)
    broken by static rank.  ``small`` has 20 jobs and ``paper-80`` 228,
    so both the short insertion-sorted runs and the merges run."""
    _, compiled, design = _rank_start(preset)
    pids = compiled.key_layout.pids
    values = data.draw(
        st.lists(PRIORITY, min_size=len(pids), max_size=len(pids))
    )
    child = CandidateDesign(
        design.mapping, dict(zip(pids, values)), dict(design.message_delays)
    )
    arrays = compiled.arrays
    fast = arrays.schedule_design(child)
    assert fast.rank_of_job == arrays.lower_candidate(child).rank_of_job
    _assert_same_pass(fast, _python_state(arrays, child))


@needs_native
def test_live_states_own_their_buffers():
    """States of one spec stay independent while all are alive."""
    spec = families.get_family("uniform-baseline").build("small", seed=1).spec()
    compiled = CompiledSpec(spec)
    arrays = compiled.arrays
    outcome = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    design = CandidateDesign(outcome[0], dict(compiled.default_priorities))
    rng = np.random.default_rng(5)
    designs = [design] + [_child(spec, design, rng) for _ in range(6)]
    states = [arrays.schedule_design(d) for d in designs]
    assert len({id(st.buf) for st in states}) == len(states)
    for d, fast in zip(designs, states):
        slow = _python_state(arrays, d)
        assert (fast.runs_s, fast.runs_e) == (slow.runs_s, slow.runs_e)
        assert np.array_equal(fast.bus_used, slow.bus_used)


@needs_native
def test_key_of_another_length_is_refused():
    """The kernel reads as many key bytes as the spec's layout has, so
    a key of any other length never reaches it."""
    _, compiled, design = _rank_start("small")
    key = compiled.signature(design)
    for wrong in (key[:-1], key + b"\0", b""):
        with pytest.raises(ValueError, match="packed key"):
            compiled.arrays.schedule_design(design, key=wrong)


@needs_native
@pytest.mark.parametrize("family_name,preset", list(_cells()))
def test_compiled_pass_equals_python_pass(family_name, preset):
    compared = [_cell(family_name, preset, seed) for seed in SEEDS]
    assert any(kinds and kinds["ok"] for kinds in compared)


@needs_native
def test_stream_reaches_deadline_and_horizon_failures():
    kinds = collections.Counter()
    for family_name, preset in _cells():
        for seed in SEEDS:
            kinds.update(_cell(family_name, preset, seed) or {})
    assert kinds["ok"]
    assert kinds["misses its deadline"]
    assert kinds["does not fit inside the horizon"]


def _oversized_message_spec():
    """Two nodes with 8-byte slots and a 16-byte message between them."""
    graph = ProcessGraph("g0", 80)
    for pid in ("P0", "P1"):
        graph.add_process(Process(pid, {"N1": 8, "N2": 8}))
    graph.add_message(Message("m0", "P0", "P1", 16))
    arch = Architecture(
        [Node("N1"), Node("N2")],
        TdmaBus([Slot("N1", 4, 8), Slot("N2", 4, 8)]),
    )
    future = FutureCharacterization(t_min=40, t_need=10, b_need=4)
    return DesignSpec(
        architecture=arch, current=Application("app", [graph]), future=future
    )


@needs_native
def test_bus_failure_matches_python_pass():
    spec = _oversized_message_spec()
    arrays = CompiledSpec(spec).arrays
    split = {"P0": "N1", "P1": "N2"}
    design = CandidateDesign(
        Mapping(spec.current, spec.architecture, split),
        {p.id: 0.0 for p in spec.current.processes},
    )
    fast = arrays.schedule_design(design)
    slow = _python_state(arrays, design)
    assert not slow.success
    assert slow.failure_reason == (
        "message 'm0' instance 0 cannot be placed on the bus before the "
        "horizon"
    )
    assert fast.failure_reason == slow.failure_reason
    assert fast.scheduled == slow.scheduled == 1
    assert fast.runs_s == slow.runs_s and fast.runs_e == slow.runs_e


def _mixed_outcome_spec(future):
    """Four processes on two nodes with 8-byte slots: ``m0`` (8 bytes)
    fits a slot, ``m1`` (16 bytes) fits none, and ``P3``'s 30 time
    units meet the deadline of 40 only on a node that is idle early."""
    graph = ProcessGraph("g0", 80, 40)
    for pid, wcet in (("P0", 8), ("P1", 8), ("P2", 8), ("P3", 30)):
        graph.add_process(Process(pid, {"N1": wcet, "N2": wcet}))
    graph.add_message(Message("m0", "P0", "P1", 8))
    graph.add_message(Message("m1", "P1", "P2", 16))
    arch = Architecture(
        [Node("N1"), Node("N2")],
        TdmaBus([Slot("N1", 4, 8), Slot("N2", 4, 8)]),
    )
    return DesignSpec(
        architecture=arch, current=Application("app", [graph]), future=future
    )


def _priced(arrays, spec, design):
    """One design's fused evaluation: failure reason, scheduled count
    and metric bits (``None`` when it does not schedule)."""
    key = design.key_under(arrays.key_layout)
    metrics = evaluate_key(arrays, spec.future, spec.weights, key)
    _assert_scratch_holds_base(arrays)
    state = native.NativePricedState(arrays.kernel_context(), key)
    arrays.run_kernel(state)
    _assert_scratch_holds_base(arrays)
    assert state.success == (metrics is not None)
    return (
        state.failure_reason,
        state.scheduled,
        None if metrics is None else _bits(metrics),
    )


@needs_native
@pytest.mark.parametrize("t_need,b_need", [(10, 4), (0, 0)])
def test_one_context_serves_every_outcome(t_need, b_need):
    """On one context: a bus failure and a deadline failure, each after
    the pass wrote an occurrence, then valid candidates with and
    without a bus write.  Every result equals a fresh context's and
    the Python pass's, and the scratch's bus region holds the base
    occupancy after every call.  Needs of 0 leave both future bags
    empty."""
    spec = _mixed_outcome_spec(
        FutureCharacterization(t_min=40, t_need=t_need, b_need=b_need)
    )
    arrays = CompiledSpec(spec).arrays
    priorities = {"P0": 3.0, "P1": 2.0, "P2": 1.0, "P3": 0.0}
    placements = (
        {"P0": "N1", "P1": "N2", "P2": "N1", "P3": "N2"},  # m1 on the bus
        {"P0": "N1", "P1": "N2", "P2": "N2", "P3": "N2"},  # P3 ends at 58
        {"P0": "N1", "P1": "N2", "P2": "N2", "P3": "N1"},  # m0 on the bus
        {"P0": "N1", "P1": "N1", "P2": "N1", "P3": "N2"},  # no bus write
    )
    reasons = []
    for placement in placements:
        design = CandidateDesign(
            Mapping(spec.current, spec.architecture, placement), priorities
        )
        got = _priced(arrays, spec, design)
        assert got == _priced(CompiledSpec(spec).arrays, spec, design)
        slow = _python_state(arrays, design)
        assert got[:2] == (slow.failure_reason, slow.scheduled)
        if slow.success:
            assert got[2] == _bits(
                evaluate_state(arrays, slow, spec.future, spec.weights)
            )
        reasons.append(slow.failure_reason and _kind(slow.failure_reason))
    assert reasons == [
        "message 'm1' instance 0 cannot be placed on the bus before the "
        "horizon",
        "misses its deadline",
        None,
        None,
    ]


def _float_bits(values):
    return [struct.pack("<d", value) for value in values]


#: Weights the mix must survive: zero, the smallest subnormal, a huge
#: finite value, infinity and ordinary values.
WEIGHT = st.one_of(
    st.sampled_from((0.0, 5e-324, 1e308, math.inf)), st.floats(0.0, 1e6)
)
#: Integers from zero to far beyond a double's 53-bit mantissa.
COUNT = st.one_of(
    st.sampled_from((0, 1, 2**53 + 1, 2**62)), st.integers(0, 2**62)
)
#: A future bag: ``None`` when empty, else (unplaced total, total).
BAG = st.one_of(st.none(), st.tuples(COUNT, st.integers(1, 2**62)))


@needs_native
@settings(max_examples=400, deadline=None)
@given(
    weights=st.tuples(WEIGHT, WEIGHT, WEIGHT, WEIGHT),
    normalize_second=st.booleans(),
    t_need=COUNT,
    b_need=COUNT,
    c2p=COUNT,
    c2m=COUNT,
    process=BAG,
    message=BAG,
)
def test_c_mix_equals_python_mix(
    weights, normalize_second, t_need, b_need, c2p, c2m, process, message
):
    """The exported C mix rounds like ``_mix`` and the C1 percentages
    of ``evaluate_state_delta``, operation for operation."""
    future = FutureCharacterization(t_min=1, t_need=t_need, b_need=b_need)
    python_weights = ObjectiveWeights(
        *weights, normalize_second=normalize_second
    )
    c1 = [
        0.0 if bag is None else 100.0 * bag[0] / bag[1]
        for bag in (process, message)
    ]
    expected = _mix(c1[0], c1[1], c2p, c2m, future, python_weights)

    ffi, lib = native.MODULE.ffi, native.MODULE.lib
    x = ffi.new("mix_ctx *", {
        "n_process": int(process is not None),
        "n_message": int(message is not None),
        "process_total": 0 if process is None else process[1],
        "message_total": 0 if message is None else message[1],
        "t_need": t_need,
        "b_need": b_need,
        "normalize_second": normalize_second,
        "w1p": weights[0], "w1m": weights[1],
        "w2p": weights[2], "w2m": weights[3],
    })
    out = ffi.new("double[5]")
    lib.mix(
        x,
        0 if process is None else process[0],
        0 if message is None else message[0],
        c2p,
        c2m,
        out,
    )
    assert _float_bits(list(out)) == _float_bits([
        expected.c1p, expected.c1m, expected.penalty_2p,
        expected.penalty_2m, expected.objective,
    ])


def test_build_compiles_without_fp_contraction(monkeypatch, tmp_path):
    """A fused multiply-add rounds once where Python rounds twice, so
    the module is compiled with ``-ffp-contract=off``."""
    cffi = pytest.importorskip("cffi")
    seen = {}

    class Stop(Exception):
        pass

    def set_source(self, name, source, **kwargs):
        seen.update(kwargs)
        raise Stop

    monkeypatch.setattr(cffi.FFI, "set_source", set_source)
    with pytest.raises(Stop):
        native_build.build("_native_probe", str(tmp_path / "probe.so"))
    assert "-ffp-contract=off" in seen["extra_compile_args"]


class _CountingLib:
    """A compiled module's functions, counting each call by name."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = collections.Counter()

    def __getattr__(self, name):
        function = getattr(self._lib, name)

        def counted(*args):
            self.calls[name] += 1
            return function(*args)

        return counted


@needs_native
def test_cold_engine_evaluation_makes_one_compiled_call(monkeypatch):
    """A cold evaluation is one ``evaluate`` call that allocates nothing
    once the scratch exists, and prices nothing in Python."""
    spec, _, start = _start("uniform-baseline", "small", 1)
    neighbour = _child(spec, start, np.random.default_rng(1))
    priced = []
    original = array_metrics.evaluate_state_delta

    def spy(*args, **kwargs):
        priced.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(array_metrics, "evaluate_state_delta", spy)
    with EvaluationEngine(spec) as engine:
        assert engine.evaluate(start) is not None
        context = engine.compiled.arrays.kernel_context()
        lib = context.lib = _CountingLib(context.lib)
        allocations = []
        alloc = context.alloc
        context.alloc = lambda *args: allocations.append(args) or alloc(*args)
        priced.clear()
        assert engine.evaluate(neighbour) is not None
    assert lib.calls == {"evaluate": 1}
    assert allocations == [] and priced == []


def _c_best_fit(size_runs, bins):
    """The C value-class walk ``evaluate`` prices with, on one bin
    multiset."""
    ffi, lib = native.MODULE.ffi, native.MODULE.lib
    values = sorted(set(bins))
    pad = [0] * (len(bins) + 4)  # room for the walk's remainder entries
    val = ffi.new("int64_t[]", values + pad)
    cnt = ffi.new("int64_t[]", [bins.count(v) for v in values] + pad)
    runs = [x for pair in size_runs for x in pair]
    return lib.best_fit_unplaced(val, cnt, len(values), runs, len(size_runs))


@needs_native
@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 12), max_size=12),
    bins=st.lists(st.integers(0, 40), max_size=16),
)
def test_best_fit_walk_equals_best_fit(sizes, bins):
    """Equal sizes, remainders that recreate a drained value and empty
    bags are all in the drawn multisets."""
    ordered = sorted(sizes, reverse=True)
    runs = [
        (size, ordered.count(size)) for size in sorted(set(sizes), reverse=True)
    ]
    assert _c_best_fit(runs, bins) == best_fit(sizes, bins).unplaced_total


@needs_native
def test_best_fit_walk_recreates_drained_values():
    # The 6s drain the 7 and leave 13 - 6 = 7 behind: a drained value
    # comes back, and the 3s then drain it to a remainder of 1.
    runs, bins = [(6, 2), (3, 3)], [7, 13]
    assert _c_best_fit(runs, bins) == (
        best_fit([6, 6, 3, 3, 3], bins).unplaced_total
    )


def _identity(result) -> dict:
    """The golden record's identity of one design (see
    ``tests/search/test_golden_equivalence.py``)."""
    return {
        "mapping": dict(sorted(result.mapping.as_dict().items())),
        "priorities": {
            k: repr(v) for k, v in sorted(result.priorities.items())
        },
        "message_delays": dict(sorted((result.message_delays or {}).items())),
        "objective": repr(result.objective),
        "evaluations": result.evaluations,
    }


def test_forced_fallback_warns_once_and_reproduces_goldens(monkeypatch):
    def broken(path):
        raise native.NativeBuildError("no compiler")

    monkeypatch.setattr(native, "module_path", lambda: Path("/nonexistent.so"))
    monkeypatch.setattr(native, "_build", broken)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        module = native.load()
    assert module is None
    assert [str(w.message) for w in caught] == [
        "compiled evaluation pass unavailable (no compiler); using the "
        "Python pass"
    ]
    assert all(w.category is RuntimeWarning for w in caught)
    monkeypatch.setattr(native, "MODULE", None)

    for family_name in families.family_names():
        family = families.get_family(family_name)
        spec = family.build(family.smallest_preset, seed=GOLDEN["seed"]).spec()
        key = f"{family_name}/{family.smallest_preset}/seed{GOLDEN['seed']}"
        for strategy in ("AH", "MH", "SA"):
            result = strategy_for_family(
                strategy, GOLDEN["seed"], True, 1, GOLDEN["sa_iterations"]
            ).design(spec)
            assert _identity(result) == GOLDEN["designs"][key][strategy]


def test_big_endian_host_falls_back_with_one_warning(monkeypatch):
    """The kernel reads the little-endian key in host order, so a
    big-endian host gets the Python pass, and no build is attempted."""

    def unreachable(*args):
        raise AssertionError("a big-endian host must not build the module")

    monkeypatch.setattr(sys, "byteorder", "big")
    monkeypatch.setattr(native, "module_path", unreachable)
    monkeypatch.setattr(native, "_build", unreachable)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        module = native.load()
    assert module is None
    assert [(w.category, str(w.message)) for w in caught] == [(
        RuntimeWarning,
        "compiled evaluation pass unavailable (big-endian host; the kernel "
        "reads the little-endian packed key in host byte order); using the "
        "Python pass",
    )]


def test_fresh_build_prunes_this_interpreters_stale_builds(
    tmp_path, monkeypatch
):
    """A build deletes the builds of earlier sources that carry this
    interpreter's suffix; another suffix stays, and an unlink that
    fails (here: a directory) is skipped.  Nothing is compiled."""
    current = tmp_path / f"_native_{'1' * 16}{native.EXT_SUFFIX}"
    stale = tmp_path / f"_native_{'0' * 16}{native.EXT_SUFFIX}"
    foreign = tmp_path / f"_native_{'0' * 16}.cp00-other.pyd"
    stuck = tmp_path / f"_native_{'2' * 16}{native.EXT_SUFFIX}"
    stale.write_bytes(b"")
    foreign.write_bytes(b"")
    stuck.mkdir()
    monkeypatch.setattr(native, "module_path", lambda: current)
    monkeypatch.setattr(native, "_build", lambda path: path.write_bytes(b""))
    monkeypatch.setattr(native, "_import", lambda path: types.ModuleType("m"))
    assert native.load() is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in (current, foreign, stuck)
    )


def test_loading_process_imports_no_build_toolchain():
    code = (
        "import sys, repro\n"
        "from repro import build_scenario, design_application, "
        "ScenarioParams\n"
        "from repro.sched import native\n"
        "s = build_scenario(ScenarioParams(), seed=1)\n"
        "assert design_application(s.spec(), strategy='MH').valid\n"
        "print(native.MODULE is not None, sorted(m for m in "
        "('setuptools', 'distutils', 'cffi') if m in sys.modules))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == f"{native.MODULE is not None} []"
