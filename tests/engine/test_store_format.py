"""The result store's on-disk format: the packed candidate key, the
binary metrics record and what a row of any bytes does to ``get``.

The pins at the bottom fix both layouts for one ``tiny`` design.  A
change that moves them must bump ``repro.engine.store.SCHEMA_VERSION``
(so older files degrade instead of being misread) and update the pins.
"""

from __future__ import annotations

import math
import sqlite3
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.initial_mapping import InitialMapper
from repro.core.metrics import DesignMetrics
from repro.core.transformations import CandidateDesign
from repro.engine.compiled_spec import CompiledSpec
from repro.engine.engine import EvaluationEngine
from repro.engine.evaluation import EvaluatedDesign
from repro.engine.store import SCHEMA_VERSION, SqliteResultStore
from repro.gen import families
from repro.model.mapping import Mapping
from repro.sched.priorities import hcp_priorities
from repro.serialize.store_key import (
    METRICS_RECORD_SIZE,
    metrics_record,
    record_metrics,
)
from repro.utils.errors import MappingError

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
FLOATS = st.floats(allow_nan=False)  # includes +-inf and -0.0


@pytest.fixture(scope="module")
def compiled(spec):
    return CompiledSpec(spec)


# ----------------------------------------------------------------------
# the metrics record
# ----------------------------------------------------------------------
@given(
    c1p=FLOATS, c1m=FLOATS, c2p=INT64, c2m=INT64,
    pen2p=FLOATS, pen2m=FLOATS, objective=FLOATS,
)
def test_metrics_record_round_trips_exactly(
    c1p, c1m, c2p, c2m, pen2p, pen2m, objective
):
    metrics = DesignMetrics(c1p, c1m, c2p, c2m, pen2p, pen2m, objective)
    record = metrics_record(metrics)
    assert len(record) == METRICS_RECORD_SIZE
    back = record_metrics(record)
    assert back == metrics
    for field in ("c1p", "c1m", "penalty_2p", "penalty_2m", "objective"):
        # Bit-exact, sign of zero included.
        assert math.copysign(1.0, getattr(back, field)) == math.copysign(
            1.0, getattr(metrics, field)
        )
    assert type(back.c2p) is int and type(back.c2m) is int


@pytest.mark.parametrize("size", [0, METRICS_RECORD_SIZE - 1, 57])
def test_metrics_record_of_wrong_length_rejected(size):
    with pytest.raises(ValueError, match="metrics record"):
        record_metrics(bytes(size))


# ----------------------------------------------------------------------
# a row of any bytes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def im_design(spec):
    mapping, _ = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule
    )
    return CandidateDesign(
        mapping, hcp_priorities(spec.current, spec.architecture.bus)
    )


@pytest.fixture(scope="module")
def database(compiled, tmp_path_factory):
    """An empty store file and the scenario key its rows carry."""
    path = tmp_path_factory.mktemp("planted") / "store.sqlite"
    store = SqliteResultStore(path, compiled=compiled)
    store.close()
    return path, store.scenario


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(payload=st.one_of(
    st.binary(max_size=80),
    st.binary(max_size=70).map(b"E".__add__),
    st.binary(
        min_size=METRICS_RECORD_SIZE, max_size=METRICS_RECORD_SIZE
    ).map(b"E".__add__),
    st.just(b"I"),
))
def test_any_payload_decodes_or_degrades(
    database, compiled, im_design, payload
):
    path, scenario = database
    signature = compiled.signature(im_design)
    conn = sqlite3.connect(path)
    conn.execute(
        "INSERT OR REPLACE INTO results VALUES (?, ?, ?)",
        (scenario, signature, payload),
    )
    conn.commit()
    conn.close()
    store = SqliteResultStore(path, compiled=compiled, read_only=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        found, outcome = store.get(signature, im_design)
    well_formed = payload == b"I" or (
        payload[:1] == b"E" and len(payload) == 1 + METRICS_RECORD_SIZE
    )
    assert found == well_formed
    if found:
        assert not caught and store.persistent
        assert store.stats().hits == 1
        if payload == b"I":
            assert outcome is None
        else:
            assert isinstance(outcome, EvaluatedDesign)
            assert outcome.design is im_design
            assert b"E" + metrics_record(outcome.metrics) == payload
    else:
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "corrupt row" in str(caught[0].message)
        assert not store.persistent
        assert store.stats().misses == 1
    store.close()


# ----------------------------------------------------------------------
# the packed candidate key
# ----------------------------------------------------------------------
PRIORITIES = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False
).map(lambda x: x + 0.0)  # -0.0 -> 0.0: both schedule alike


def _design_strategy(spec):
    processes = sorted(spec.current.processes, key=lambda p: p.id)
    message_ids = sorted(m.id for m in spec.current.messages)
    return st.fixed_dictionaries({
        "nodes": st.tuples(
            *(st.sampled_from(sorted(p.allowed_nodes)) for p in processes)
        ),
        "priorities": st.lists(
            PRIORITIES, min_size=len(processes), max_size=len(processes)
        ),
        "delays": st.dictionaries(
            st.sampled_from(message_ids), st.integers(0, 3), max_size=3
        ),
    }).map(lambda raw: CandidateDesign(
        Mapping(
            spec.current,
            spec.architecture,
            {p.id: n for p, n in zip(processes, raw["nodes"])},
        ),
        {p.id: x for p, x in zip(processes, raw["priorities"])},
        dict(raw["delays"]),
    ))


def _identity(design):
    return (
        sorted(design.mapping.as_dict().items()),
        sorted(design.priorities.items()),
        sorted((m, d) for m, d in design.message_delays.items() if d),
    )


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_keys_equal_exactly_when_designs_equal(spec, compiled, data):
    """b is a fresh draw, or a copy of a with at most one slot edited
    (an edit may also leave the slot as it was)."""
    a = data.draw(_design_strategy(spec), label="a")
    if not data.draw(st.booleans(), label="copy"):
        b = data.draw(_design_strategy(spec), label="b")
    else:
        b = a.copy()
        process = data.draw(st.sampled_from(spec.current.processes))
        message = data.draw(st.sampled_from(spec.current.messages))
        edit = data.draw(st.sampled_from(["node", "priority", "delay"]))
        if edit == "node":
            b.mapping.assign(
                process.id,
                data.draw(st.sampled_from(sorted(process.allowed_nodes))),
            )
        elif edit == "priority":
            b.priorities[process.id] = data.draw(PRIORITIES)
        else:
            # 0 may be written explicitly: it is the absent delay.
            b.message_delays[message.id] = data.draw(st.integers(0, 3))
    same = _identity(a) == _identity(b)
    assert (compiled.signature(a) == compiled.signature(b)) == same


def test_incomplete_mapping_raises_mapping_error(spec, compiled, im_design):
    partial = im_design.mapping.copy()
    partial.unassign(spec.current.processes[0].id)
    with pytest.raises(MappingError, match="incomplete"):
        compiled.signature(CandidateDesign(partial, im_design.priorities))


# ----------------------------------------------------------------------
# format pins
# ----------------------------------------------------------------------
#: uniform-baseline/tiny, seed 1: the initial mapping, HCP priorities
#: and a one-slot delay on the first message.
PINNED_KEY = (
    "010000005555555555b5724002000000aaaaaaaaaa8e764003000000000000"
    "0000607440010000000000000000c86f40000000000000000000286340010000"
    "00000000000000000000000000"
)
PINNED_RECORD = (
    "8dd95001e14b1f4000000000000000002a010000000000004309000000000000"
    "664a1d56d97950400000000000000000ff573266976e5240"
)


def test_key_and_record_layout_pinned():
    spec = families.get_family("uniform-baseline").build("tiny", seed=1).spec()
    compiled = CompiledSpec(spec, engine_core="array")
    mapping, _ = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    first = sorted(m.id for m in spec.current.messages)[0]
    design = CandidateDesign(
        mapping,
        dict(hcp_priorities(spec.current, spec.architecture.bus)),
        {first: 1},
    )
    outcome = EvaluationEngine(spec).evaluate(design)
    assert outcome is not None
    assert SCHEMA_VERSION == 2, "layout changed: update the pins below"
    assert compiled.signature(design).hex() == PINNED_KEY
    assert metrics_record(outcome.metrics).hex() == PINNED_RECORD
