"""The array-native neighbourhood against its decoded-schedule oracle.

:class:`repro.search.proposers.Neighbourhood` scores the Mapping
Heuristic's candidates and finds swap partners from one kernel pass of
the current design's key.  On every design an MH descent or an SA
polish step proposes from -- every family and preset that builds,
``uniform-baseline`` ``fig-10`` and ``paper-80`` too, seeds 1-3 -- it
must give the candidate order and the neighbour lists that
``tests/oracleutil.py`` reads off the decoded schedule, over the
compiled pass and over the forced Python fallback alike.  A search
decodes only its result.
"""

from __future__ import annotations

import pytest

from oracleutil import schedule_neighbours, select_candidates

from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.gen import families
from repro.sched import native
from repro.sched.arrays import ArraySpec
from repro.search import proposers
from repro.search.proposers import Neighbourhood
from repro.utils.errors import MappingError

SEEDS = (1, 2, 3)
CELLS = [
    (name, preset)
    for name in families.family_names()
    for preset in ("tiny", "small", "medium")
    if preset in families.get_family(name).presets
] + [("uniform-baseline", "fig-10"), ("uniform-baseline", "paper-80")]


def _proposed_designs(monkeypatch, spec):
    """The designs an MH run and an SA run's polish descents propose
    from, in step order."""
    seen = []
    propose = proposers.NeighbourhoodProposer.propose

    def recording(self, spec, current, rng):
        seen.append(current)
        return propose(self, spec, current, rng)

    with monkeypatch.context() as patch:
        patch.setattr(proposers.NeighbourhoodProposer, "propose", recording)
        MappingHeuristic().design(spec)
        SimulatedAnnealing(iterations=40, seed=5).design(spec)
    return seen


def _array_view(spec, current):
    neighbourhood = Neighbourhood(spec, current)
    index = current.design.layout.process_index
    order = neighbourhood.rank_candidates(len(index))
    return order, {
        pid: neighbourhood.swap_neighbours(index[pid]) for pid in order
    }


def _oracle_view(spec, current):
    order = select_candidates(spec, current, spec.current.process_count)
    schedule = current.schedule
    mapping = current.mapping
    return order, {
        pid: schedule_neighbours(spec, schedule, pid, mapping.node_of(pid))
        for pid in order
    }


@pytest.mark.parametrize(("family_name", "preset"), CELLS)
def test_array_scores_match_the_decoded_oracle(
    monkeypatch, family_name, preset
):
    family = families.get_family(family_name)
    checked = 0
    for seed in SEEDS:
        try:
            spec = family.build(preset, seed=seed).spec()
        except MappingError:
            continue  # no Initial Mapping: the cell does not build
        designs = _proposed_designs(monkeypatch, spec)
        for current in designs:
            expected = _oracle_view(spec, current)
            assert _array_view(spec, current) == expected
            with monkeypatch.context() as patch:
                patch.setattr(native, "MODULE", None)
                assert _array_view(spec, current) == expected
        checked += len(designs)
    assert checked, "no seed of the cell built"


@pytest.mark.parametrize("strategy", [
    MappingHeuristic(),
    SimulatedAnnealing(iterations=200, seed=3),
], ids=["MH", "SA"])
def test_a_search_decodes_only_its_result(monkeypatch, strategy):
    spec = families.get_family("uniform-baseline").build("medium", 1).spec()
    calls = []
    decode = ArraySpec.decode_schedule

    def counting(self, state):
        calls.append(state)
        return decode(self, state)

    monkeypatch.setattr(ArraySpec, "decode_schedule", counting)
    result = strategy.design(spec)
    assert result.valid and result.search.steps > 1
    assert len(calls) == 1
