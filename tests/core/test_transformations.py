"""Tests for the design transformations and CandidateDesign."""

import pytest

from moveutil import remap_moves

from repro.core.transformations import (
    CandidateDesign,
    DelayMessage,
    RemapProcess,
    SwapPriorities,
)
from repro.model.mapping import Mapping
from repro.utils.errors import MappingError


@pytest.fixture
def design(fork_join_app, arch2) -> CandidateDesign:
    mapping = Mapping(
        fork_join_app,
        arch2,
        {p.id: "N1" for p in fork_join_app.processes},
    )
    return CandidateDesign(mapping, {"P0": 4.0, "P1": 3.0, "P2": 2.0, "P3": 1.0})


class TestCandidateDesign:
    def test_copy_is_deep(self, design):
        """A copy holds equal views of its own, never the original's
        objects, and packs to the original's key."""
        child = DelayMessage("m0", +1).apply(design)
        for original in (design, child):
            clone = original.copy()
            for view in ("mapping", "priorities", "message_delays"):
                assert getattr(clone, view) == getattr(original, view)
                assert getattr(clone, view) is not getattr(original, view)
            assert clone.key == original.key
        assert design.message_delays == {}
        assert child.message_delays == {"m0": 1}


class TestImmutability:
    def test_decoded_views_cannot_change_the_key(self, design):
        child = RemapProcess("P1", "N2").apply(
            DelayMessage("m0", +1).apply(design)
        )
        key = child.key
        with pytest.raises(TypeError):
            child.mapping.assign("P1", "N1")
        with pytest.raises(TypeError):
            child.mapping.unassign("P1")
        with pytest.raises(TypeError):
            child.priorities["P0"] = 99.0
        with pytest.raises(TypeError):
            child.message_delays["m0"] = 0
        writable = child.mapping.copy()
        writable.assign("P1", "N1")
        assert child.key == key
        assert child.mapping.node_of("P1") == "N2"
        assert child.priorities["P0"] == 4.0
        assert child.message_delays == {"m0": 1}

    def test_edge_design_packs_once(self, design):
        """The edge constructor packs what it was given when its key is
        first read; edits to those objects after that are not seen."""
        key = design.key
        design.priorities["P0"] = 99.0
        assert design.key == key
        assert SwapPriorities("P0", "P1").apply(design).priorities["P1"] == 4.0

    def test_moves_leave_the_parent_key(self, design):
        key = design.key
        for move in (
            RemapProcess("P1", "N2"),
            SwapPriorities("P0", "P3"),
            DelayMessage("m0", +2),
        ):
            assert move.apply(design).key != key
        assert design.key == key


class TestRemapProcess:
    def test_apply(self, design):
        out = RemapProcess("P1", "N2").apply(design)
        assert out.mapping.node_of("P1") == "N2"
        assert design.mapping.node_of("P1") == "N1"

    def test_apply_invalid_node_raises(self, design):
        with pytest.raises(MappingError):
            RemapProcess("P1", "N9").apply(design)

    def test_describe(self):
        assert "P1" in RemapProcess("P1", "N2").describe()


class TestSwapPriorities:
    def test_apply(self, design):
        out = SwapPriorities("P0", "P3").apply(design)
        assert out.priorities["P0"] == 1.0
        assert out.priorities["P3"] == 4.0
        assert design.priorities["P0"] == 4.0

    def test_swap_with_missing_defaults_zero(self, design):
        lacking = CandidateDesign(
            design.mapping, {"P0": 4.0, "P1": 3.0, "P2": 2.0}
        )
        out = SwapPriorities("P0", "P3").apply(lacking)
        assert out.priorities["P0"] == 0.0
        assert out.priorities["P3"] == 4.0

    def test_describe(self):
        assert "<->" in SwapPriorities("a", "b").describe()


class TestDelayMessage:
    def test_increment(self, design):
        out = DelayMessage("m0", +1).apply(design)
        assert out.message_delays == {"m0": 1}

    def test_accumulates(self, design):
        out = DelayMessage("m0", +1).apply(design)
        out = DelayMessage("m0", +2).apply(out)
        assert out.message_delays == {"m0": 3}

    def test_clamped_at_zero_and_cleaned(self, design):
        out = DelayMessage("m0", -5).apply(design)
        assert out.message_delays == {}

    def test_decrement_to_zero_removes_key(self, design):
        out = DelayMessage("m0", +1).apply(design)
        out = DelayMessage("m0", -1).apply(out)
        assert "m0" not in out.message_delays

    def test_describe_signs(self):
        assert "+1" in DelayMessage("m", 1).describe()
        assert "-1" in DelayMessage("m", -1).describe()


class TestRemapMoves:
    def test_generates_all_alternatives(self, design):
        moves = remap_moves(design.mapping, ["P0", "P1"])
        assert {(m.process_id, m.node_id) for m in moves} == {
            ("P0", "N2"),
            ("P1", "N2"),
        }

    def test_skips_current_node(self, design):
        moves = remap_moves(design.mapping, ["P0"])
        assert all(m.node_id != "N1" for m in moves)
