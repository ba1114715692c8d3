"""Tests for process-to-node mappings."""

import pytest

from repro.model.application import Application
from repro.model.architecture import Architecture, Node
from repro.model.mapping import Mapping
from repro.model.process_graph import Process, ProcessGraph
from repro.utils.errors import MappingError


@pytest.fixture
def app() -> Application:
    g = ProcessGraph("g", 100)
    g.add_process(Process("P1", {"N1": 5, "N2": 8}))
    g.add_process(Process("P2", {"N2": 6}))
    return Application("a", [g])


@pytest.fixture
def arch() -> Architecture:
    return Architecture([Node("N1"), Node("N2")])


class TestAssignment:
    def test_assign_and_lookup(self, app, arch):
        m = Mapping(app, arch)
        m.assign("P1", "N1")
        assert m.node_of("P1") == "N1"
        assert m.get("P1") == "N1"
        assert "P1" in m

    def test_assign_replaces(self, app, arch):
        m = Mapping(app, arch)
        m.assign("P1", "N1")
        m.assign("P1", "N2")
        assert m.node_of("P1") == "N2"

    def test_constructor_assignment(self, app, arch):
        m = Mapping(app, arch, {"P1": "N1", "P2": "N2"})
        assert m.is_complete()

    def test_unknown_process_rejected(self, app, arch):
        with pytest.raises(MappingError):
            Mapping(app, arch).assign("P9", "N1")

    def test_unknown_node_rejected(self, app, arch):
        with pytest.raises(MappingError):
            Mapping(app, arch).assign("P1", "N9")

    def test_disallowed_node_rejected(self, app, arch):
        with pytest.raises(MappingError):
            Mapping(app, arch).assign("P2", "N1")

    def test_unassign(self, app, arch):
        m = Mapping(app, arch, {"P1": "N1"})
        m.unassign("P1")
        assert m.get("P1") is None
        m.unassign("P1")  # idempotent

    def test_node_of_unmapped_raises(self, app, arch):
        with pytest.raises(MappingError):
            Mapping(app, arch).node_of("P1")


class TestQueries:
    def test_len_and_items(self, app, arch):
        m = Mapping(app, arch, {"P1": "N1", "P2": "N2"})
        assert len(m) == 2
        assert dict(m.items()) == {"P1": "N1", "P2": "N2"}
        assert dict(iter(m)) == m.as_dict()

    def test_is_complete(self, app, arch):
        m = Mapping(app, arch, {"P1": "N1"})
        assert not m.is_complete()
        m.assign("P2", "N2")
        assert m.is_complete()

    def test_validate_complete_raises_with_names(self, app, arch):
        m = Mapping(app, arch, {"P1": "N1"})
        with pytest.raises(MappingError, match="P2"):
            m.validate_complete()

    def test_copy_is_independent(self, app, arch):
        m = Mapping(app, arch, {"P1": "N1"})
        c = m.copy()
        c.assign("P1", "N2")
        assert m.node_of("P1") == "N1"

    def test_equality(self, app, arch):
        a = Mapping(app, arch, {"P1": "N1"})
        b = Mapping(app, arch, {"P1": "N1"})
        c = Mapping(app, arch, {"P1": "N2"})
        assert a == b
        assert a != c

    def test_as_dict_is_snapshot(self, app, arch):
        m = Mapping(app, arch, {"P1": "N1"})
        d = m.as_dict()
        d["P1"] = "N2"
        assert m.node_of("P1") == "N1"
