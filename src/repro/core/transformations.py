"""Design transformations (slide 14).

The paper's optimization strategies improve a design by applying two
kinds of moves to the current application:

* *moving a process to a different slack on the same or a different
  processor*, and
* *moving a message to a different slack on the bus*.

A candidate design here is the triple
``(mapping, priorities, message_delays)``, held as one packed key in
:class:`CandidateDesign`; the static cyclic schedule is a
deterministic function of that triple (the list scheduler).  The
paper's moves map to three concrete transformations:

* :class:`RemapProcess` -- change the node a process is mapped to
  (moves the process, and implicitly its messages, to the slack of a
  different processor / bus slot);
* :class:`SwapPriorities` -- exchange the list-scheduling priorities of
  two processes, reordering the ready list so the process lands in a
  different slack of the *same* processor;
* :class:`DelayMessage` -- make a message skip feasible TDMA slot
  occurrences, moving it to a later slack on the bus.

Every transformation is pure: ``apply`` copies its parent's key and
writes only the field it changes (one int32, two swapped float64
slices or one int64), leaving the input design untouched, so
strategies can fan out many moves from one base design.

Every transformation also declares its **footprint**: the dirty set of
processes, nodes and messages whose scheduling decisions the move can
affect directly.  The incremental evaluation kernel
(:mod:`repro.engine.delta`, off the production path) turns a footprint
into the earliest point where a child schedule can diverge from its
parent, and reschedules only from there.  Footprints are *direct* dirty sets -- ripple effects
(a displaced process freeing a gap another process then takes) are
handled by the divergence/resume machinery, not declared here.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import FrozenSet, Mapping as TMapping, Optional, Union

from repro.model.design_key import KeyLayout
from repro.model.mapping import Mapping, ReadOnlyMapping


@dataclass(frozen=True)
class MoveFootprint:
    """The dirty set one transformation can affect directly.

    Attributes
    ----------
    processes:
        Processes whose *pop-time* behavior changes: their own
        placement (node, WCET) or the delivery of a message they send.
        The child schedule cannot diverge from the parent before the
        first pop of one of these processes' instances.
    reprioritized:
        Processes whose ready-heap key changes.  Divergence can start
        as soon as one of their instances sits in the ready heap and
        the new key would win (or lose) a pop it previously lost (or
        won).
    nodes:
        Nodes whose timeline the move touches directly (the remap's
        source/target, the priority swap's node, the delayed message's
        sender).  Diagnostic: the full dirty-node set of a child is
        only known after rescheduling, because displaced work ripples.
    messages:
        Messages whose bus placement the move changes directly.
    """

    processes: FrozenSet[str] = frozenset()
    reprioritized: FrozenSet[str] = frozenset()
    nodes: FrozenSet[str] = frozenset()
    messages: FrozenSet[str] = frozenset()


class CandidateDesign:
    """A point in the search space of the optimization strategies.

    The design *is* one packed key (:mod:`repro.model.design_key`): a
    node index and a priority per process, a delay per message, under
    the :class:`~repro.model.design_key.KeyLayout` that places them.
    Designs are immutable.  A move copies its parent's key and writes
    the one field it changes, so the search never copies a dict or
    packs a key.

    The edge constructor ``CandidateDesign(mapping, priorities[,
    message_delays])`` keeps the objects it is given and packs them
    once, when its key is first needed: under the layout of the first
    :meth:`CompiledSpec.signature
    <repro.engine.compiled_spec.CompiledSpec.signature>` that asks, or
    under its mapping's own layout when a move is applied first.  Treat
    those objects as handed over: edits made after that are not seen.

    Attributes
    ----------
    mapping:
        Process-to-node assignment of the current application.
    priorities:
        List-scheduling priorities (higher runs first among ready).
    message_delays:
        Per-message feasible-slot skips (absent means 0).

    A design derived by a move holds its key only; these three are
    then read-only views, decoded from the key on first read.  Only
    the edges read them (results, design identity, the object-core
    oracle and the delta kernel).
    """

    __slots__ = ("_layout", "_key", "_mapping", "_priorities", "_delays")

    def __init__(
        self,
        mapping: Mapping,
        priorities: TMapping[str, float],
        message_delays: Optional[TMapping[str, int]] = None,
    ) -> None:
        self._layout: Optional[KeyLayout] = None
        self._key: Optional[bytes] = None
        self._mapping: Optional[Mapping] = mapping
        self._priorities: Optional[TMapping[str, float]] = priorities
        self._delays: Optional[TMapping[str, int]] = (
            {} if message_delays is None else message_delays
        )

    # ------------------------------------------------------------------
    # the key
    # ------------------------------------------------------------------
    @property
    def layout(self) -> KeyLayout:
        """The layout of :attr:`key`."""
        layout = self._layout
        if layout is None:
            mapping = self._mapping
            assert mapping is not None  # an edge design holds its views
            layout = KeyLayout(mapping.application, mapping.architecture)
            self.key_under(layout)
        return layout

    @property
    def key(self) -> bytes:
        """The packed design, under :attr:`layout`."""
        key = self._key
        if key is None:
            key = self.key_under(self.layout)
        return key

    def key_under(self, layout: KeyLayout) -> bytes:
        """This design's key in ``layout``.

        The design's own key when its layout equals ``layout``; an
        edge design not packed yet packs its views under ``layout``
        and keeps the result.  Any other design is packed from its
        decoded views.

        Raises
        ------
        repro.utils.errors.MappingError
            If an edge design's mapping leaves a process unmapped.
        """
        own = self._layout
        if own is layout:
            return self._key  # type: ignore[return-value]
        if own is None:
            mapping, priorities, delays = (
                self._mapping, self._priorities, self._delays
            )
            assert mapping is not None and priorities is not None
            assert delays is not None  # an edge design holds its views
            key = layout.pack(mapping, priorities, delays)
            self._layout = layout
            self._key = key
            return key
        if own == layout:
            return self._key  # type: ignore[return-value]
        return layout.pack(self.mapping, self.priorities, self.message_delays)

    # ------------------------------------------------------------------
    # the views
    # ------------------------------------------------------------------
    @property
    def mapping(self) -> Mapping:
        mapping = self._mapping
        if mapping is None:
            mapping = self._decode()
        return mapping

    @property
    def priorities(self) -> TMapping[str, float]:
        priorities = self._priorities
        if priorities is None:
            self._decode()
            priorities = self._priorities
        return priorities  # type: ignore[return-value]

    @property
    def message_delays(self) -> TMapping[str, int]:
        delays = self._delays
        if delays is None:
            self._decode()
            delays = self._delays
        return delays  # type: ignore[return-value]

    def _decode(self) -> Mapping:
        layout = self._layout
        assert layout is not None and self._key is not None
        assignment, priorities, delays = layout.decode(self._key)
        mapping = ReadOnlyMapping(
            layout.application, layout.architecture, assignment
        )
        self._mapping = mapping
        self._priorities = MappingProxyType(priorities)
        self._delays = MappingProxyType(delays)
        return mapping

    def copy(self) -> "CandidateDesign":
        """An edge design over writable copies of this design's views."""
        return CandidateDesign(
            self.mapping.copy(),
            dict(self.priorities),
            dict(self.message_delays),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "edge" if self._layout is None else f"key of {len(self._key or b'')} bytes"
        return f"CandidateDesign({state})"


def _derived(layout: KeyLayout, key: bytes) -> CandidateDesign:
    """The design ``key`` holds under ``layout`` (a move's child)."""
    design = _new_design(CandidateDesign)
    design._layout = layout
    design._key = key
    design._mapping = None
    design._priorities = None
    design._delays = None
    return design


_new_design = object.__new__


@dataclass(frozen=True)
class RemapProcess:
    """Move ``process_id`` onto ``node_id`` (a different-processor slack)."""

    process_id: str
    node_id: str

    def apply(self, design: CandidateDesign) -> CandidateDesign:
        """Return a new design with the process remapped.

        Raises
        ------
        repro.utils.errors.MappingError
            If the node is unknown or not allowed for the process.
        """
        layout = design.layout
        return _derived(
            layout,
            layout.remapped(design.key, self.process_id, self.node_id),
        )

    def footprint(self, design: CandidateDesign) -> MoveFootprint:
        """Dirty set: the process, affected deliveries, both nodes.

        Besides the remapped process itself, a *predecessor* is
        placement-dirty when the delivery of its message into the
        process changes: the delivery happens while the predecessor's
        job is popped, and its shape depends only on whether sender and
        receiver share a node (the bus slot is the *sender's*).  A
        sender mapped to neither the old nor the new node keeps an
        identical delivery -- same slot, same ready time -- and stays
        clean.
        """
        mapping = design.mapping
        graph = mapping.application.graph_of(self.process_id)
        in_messages = graph.in_messages(self.process_id)
        out_messages = graph.out_messages(self.process_id)
        old_node = mapping.node_of(self.process_id)
        dirty = [self.process_id]
        dirty_messages = [msg.id for msg in out_messages]
        for msg in in_messages:
            if mapping.node_of(msg.src) in (old_node, self.node_id):
                dirty.append(msg.src)
                dirty_messages.append(msg.id)
        return MoveFootprint(
            processes=frozenset(dirty),
            nodes=frozenset([old_node, self.node_id]),
            messages=frozenset(dirty_messages),
        )

    def describe(self) -> str:
        return f"remap {self.process_id} -> {self.node_id}"


@dataclass(frozen=True)
class SwapPriorities:
    """Exchange scheduling priorities of two processes (same-resource shuffle)."""

    first: str
    second: str

    def apply(self, design: CandidateDesign) -> CandidateDesign:
        """Return a new design with the two priorities swapped, bit for
        bit (a priority the design leaves out is 0.0)."""
        layout = design.layout
        return _derived(
            layout, layout.swapped(design.key, self.first, self.second)
        )

    def footprint(self, design: CandidateDesign) -> MoveFootprint:
        """Dirty set: only the two re-keyed processes (and their nodes)."""
        return MoveFootprint(
            reprioritized=frozenset([self.first, self.second]),
            nodes=frozenset(
                [
                    design.mapping.node_of(self.first),
                    design.mapping.node_of(self.second),
                ]
            ),
        )

    def describe(self) -> str:
        return f"swap priority {self.first} <-> {self.second}"


@dataclass(frozen=True)
class DelayMessage:
    """Shift ``message_id`` by ``delta`` feasible slot occurrences.

    The resulting delay is clamped at zero; a move that would leave the
    delay unchanged still produces a (trivially equal) new design and
    is filtered out by the strategies' improvement test.
    """

    message_id: str
    delta: int

    def apply(self, design: CandidateDesign) -> CandidateDesign:
        """Return a new design with the message delay adjusted."""
        layout = design.layout
        return _derived(
            layout, layout.delayed(design.key, self.message_id, self.delta)
        )

    def footprint(self, design: CandidateDesign) -> MoveFootprint:
        """Dirty set: the sender (deliveries happen at its pop) + slot."""
        message = design.mapping.application.message(self.message_id)
        return MoveFootprint(
            processes=frozenset([message.src]),
            nodes=frozenset([design.mapping.node_of(message.src)]),
            messages=frozenset([self.message_id]),
        )

    def describe(self) -> str:
        sign = "+" if self.delta >= 0 else ""
        return f"delay message {self.message_id} {sign}{self.delta} slots"


Transformation = Union[RemapProcess, SwapPriorities, DelayMessage]

