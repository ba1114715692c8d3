"""Design transformations (slide 14).

The paper's optimization strategies improve a design by applying two
kinds of moves to the current application:

* *moving a process to a different slack on the same or a different
  processor*, and
* *moving a message to a different slack on the bus*.

A candidate design here is the triple
``(mapping, priorities, message_delays)`` wrapped in
:class:`CandidateDesign`; the static cyclic schedule is a deterministic
function of that triple (the list scheduler).  The paper's moves map to
three concrete transformations:

* :class:`RemapProcess` -- change the node a process is mapped to
  (moves the process, and implicitly its messages, to the slack of a
  different processor / bus slot);
* :class:`SwapPriorities` -- exchange the list-scheduling priorities of
  two processes, reordering the ready list so the process lands in a
  different slack of the *same* processor;
* :class:`DelayMessage` -- make a message skip feasible TDMA slot
  occurrences, moving it to a later slack on the bus.

Every transformation is pure: ``apply`` returns fresh copies and leaves
the input design untouched, so strategies can fan out many moves from
one base design.

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

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Union

from repro.model.mapping import Mapping
from repro.sched.priorities import PriorityMap


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


@dataclass
class CandidateDesign:
    """A point in the search space of the optimization strategies.

    Attributes
    ----------
    mapping:
        Process-to-node assignment of the current application.
    priorities:
        List-scheduling priorities (higher runs first among ready).
    message_delays:
        Per-message feasible-slot skips (absent means 0).
    """

    mapping: Mapping
    priorities: PriorityMap
    message_delays: Dict[str, int] = field(default_factory=dict)

    def copy(self) -> "CandidateDesign":
        """An independent copy of the design point."""
        return CandidateDesign(
            self.mapping.copy(),
            dict(self.priorities),
            dict(self.message_delays),
        )


@dataclass(frozen=True)
class RemapProcess:
    """Move ``process_id`` onto ``node_id`` (a different-processor slack)."""

    process_id: str
    node_id: str

    def apply(self, design: CandidateDesign) -> CandidateDesign:
        """Return a new design with the process remapped."""
        out = design.copy()
        out.mapping.assign(self.process_id, self.node_id)
        return out

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
        """Return a new design with the two priorities swapped."""
        out = design.copy()
        a = out.priorities.get(self.first, 0.0)
        b = out.priorities.get(self.second, 0.0)
        out.priorities[self.first] = b
        out.priorities[self.second] = a
        return out

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
        out = design.copy()
        current = out.message_delays.get(self.message_id, 0)
        new = max(0, current + self.delta)
        if new == 0:
            out.message_delays.pop(self.message_id, None)
        else:
            out.message_delays[self.message_id] = new
        return out

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


def remap_moves(
    mapping: Mapping, process_ids: Iterable[str]
) -> List[RemapProcess]:
    """All single-process remap moves for the given processes."""
    moves: List[RemapProcess] = []
    for pid in process_ids:
        current = mapping.node_of(pid)
        process = mapping.application.process(pid)
        for node_id in process.allowed_nodes:
            if node_id != current:
                moves.append(RemapProcess(pid, node_id))
    return moves
