"""Differential tests of the key-backed design point.

A move writes one field into a copy of its parent's key.  The
reference here is the dict form every move had before: a mapping and
two dicts, edited by :func:`_reference_apply` and packed by
``CompiledSpec.signature``.  Along seeded streams of proposer moves on
every family and preset, each child's key must equal that packing,
and the child's decoded views must pack back to it.
"""

from __future__ import annotations

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.initial_mapping import InitialMapper
from repro.core.transformations import (
    CandidateDesign,
    DelayMessage,
    RemapProcess,
    SwapPriorities,
)
from repro.engine import CompiledSpec, EvaluationEngine
from repro.gen import families
from repro.model.application import Application
from repro.model.architecture import Architecture, Node
from repro.model.mapping import Mapping
from repro.model.process_graph import Message, Process, ProcessGraph
from repro.search.proposers import generate_moves, random_move
from repro.tdma.bus import Slot, TdmaBus
from repro.utils.errors import MappingError

STEPS = 40


def _reference_apply(move, assignment, priorities, delays):
    """The dict form of ``move.apply``: fresh dicts, one entry edited."""
    assignment, priorities, delays = (
        dict(assignment), dict(priorities), dict(delays)
    )
    if isinstance(move, RemapProcess):
        assignment[move.process_id] = move.node_id
    elif isinstance(move, SwapPriorities):
        a = priorities.get(move.first, 0.0)
        b = priorities.get(move.second, 0.0)
        priorities[move.first] = b
        priorities[move.second] = a
    else:
        new = max(0, delays.get(move.message_id, 0) + move.delta)
        if new == 0:
            delays.pop(move.message_id, None)
        else:
            delays[move.message_id] = new
    return assignment, priorities, delays


def _packed(spec, compiled, assignment, priorities, delays):
    mapping = Mapping(spec.current, spec.architecture, assignment)
    return compiled.signature(CandidateDesign(mapping, priorities, delays))


def _check(spec, compiled, child, reference):
    expected = _packed(spec, compiled, *reference)
    assert child.key == expected
    assert compiled.signature(child) == expected
    views = (
        child.mapping.as_dict(),
        dict(child.priorities),
        dict(child.message_delays),
    )
    assert _packed(spec, compiled, *views) == expected
    assert views[2] == reference[2]  # a delay back at 0 is no entry


def _cells():
    for family in families.family_names():
        presets = families.get_family(family).preset_names
        for preset in ("tiny", "small", "medium"):
            if preset not in presets:
                continue
            for seed in (1, 2, 3):
                yield pytest.param(
                    family, preset, seed, id=f"{family}-{preset}-{seed}"
                )


@pytest.mark.parametrize("family,preset,seed", list(_cells()))
def test_patched_keys_equal_packed_dicts(family, preset, seed):
    """A seeded stream of ``random_move`` and ``generate_moves`` moves
    from the Initial Mapping design, which lacks one process's
    priority; it opens by raising one delay and lowering it back to 0
    (and once more, clamped)."""
    spec = families.get_family(family).build(preset, seed=seed).spec()
    compiled = CompiledSpec(spec)
    outcome = InitialMapper(spec.architecture).try_map_and_schedule(
        spec.current, base=spec.base_schedule, compiled=compiled
    )
    if outcome is None:
        # No Initial Mapping: walk from every process on its first
        # allowed node (random moves need no valid design).
        mapping = Mapping(spec.current, spec.architecture, {
            p.id: p.allowed_nodes[0] for p in spec.current.processes
        })
    else:
        mapping = outcome[0]
    priorities = dict(compiled.default_priorities)
    del priorities[spec.current.processes[-1].id]
    design = CandidateDesign(mapping, priorities)
    reference = (mapping.as_dict(), dict(priorities), {})
    rng = np.random.default_rng(seed)
    first = spec.current.messages[0].id
    opening = [DelayMessage(first, d) for d in (+2, -1, -1, -1)]
    with EvaluationEngine(spec) as engine:
        for step in range(STEPS):
            if opening:
                moves = [opening.pop(0)]
            elif step % 6 == 5:
                evaluated = engine.evaluate(design)
                if evaluated is None:
                    continue
                moves = generate_moves(spec, evaluated, pool_size=4)
            else:
                here = SimpleNamespace(design=design)
                moves = [random_move(spec, here, rng)]
            if not moves:
                continue
            children = []
            for move in moves:
                child = move.apply(design)
                child_reference = _reference_apply(move, *reference)
                _check(spec, compiled, child, child_reference)
                children.append((child, child_reference))
            design, reference = children[int(rng.integers(len(children)))]


# ----------------------------------------------------------------------
# bit-exact priority swaps
# ----------------------------------------------------------------------
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]


@pytest.fixture(scope="module")
def two_process_design():
    graph = ProcessGraph("g", 40)
    graph.add_process(Process("A", {"N1": 4, "N2": 4}))
    graph.add_process(Process("B", {"N1": 4}))
    graph.add_message(Message("m", "A", "B", 4))
    architecture = Architecture(
        [Node("N1"), Node("N2")],
        TdmaBus([Slot("N1", 4, 8), Slot("N2", 4, 8)]),
    )
    application = Application("app", [graph])
    return Mapping(application, architecture, {"A": "N2", "B": "N1"})


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=150, deadline=None)
@given(
    a=st.sampled_from(SPECIAL) | st.floats(),
    b=st.sampled_from(SPECIAL) | st.floats(),
)
def test_swap_exchanges_priority_bits(two_process_design, a, b):
    design = CandidateDesign(two_process_design, {"A": a, "B": b})
    key = design.key
    out = SwapPriorities("B", "A").apply(design)
    # A's priority sits at bytes 4..12, B's at 16..24.
    assert out.key[4:12] == _bits(b) and out.key[16:24] == _bits(a)
    assert out.key[:4] == key[:4] and out.key[12:16] == key[12:16]
    assert out.key[24:] == key[24:]
    assert _bits(out.priorities["A"]) == _bits(b)
    assert _bits(out.priorities["B"]) == _bits(a)
    assert SwapPriorities("A", "B").apply(out).key == key


def test_remap_to_a_node_the_process_may_not_use(two_process_design):
    design = CandidateDesign(two_process_design, {})
    with pytest.raises(MappingError, match="not allowed"):
        RemapProcess("B", "N2").apply(design)
    with pytest.raises(MappingError, match="unknown node"):
        RemapProcess("B", "N9").apply(design)
    with pytest.raises(MappingError, match="not part of"):
        RemapProcess("Z", "N1").apply(design)
