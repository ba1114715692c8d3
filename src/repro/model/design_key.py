"""The packed design key: the one encoding of a design point.

A candidate design of the search -- a process-to-node mapping, the
list-scheduling priorities and the message delays -- is one ``bytes``
value laid out by a :class:`KeyLayout`, little-endian and unpadded:

* per process, in sorted-id order: the index of its node in
  architecture order (int32) and its priority (float64);
* per message, in sorted-id order: its delay in feasible-slot skips
  (int64).

The same bytes are the evaluation cache's key, the result store's key
and the lowering the compiled scheduling pass reads, so a design point
needs no conversion between a move and the store.  A transformation
writes only the field it changes into a copy of its parent's key
(:meth:`KeyLayout.remapped`, :meth:`~KeyLayout.swapped`,
:meth:`~KeyLayout.delayed`).  String ids live only at the edges:
:meth:`KeyLayout.pack` turns a mapping and two dicts into a key, and
:meth:`KeyLayout.decode` turns a key back into them.
"""

from __future__ import annotations

import struct
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Mapping as TMapping, NoReturn, Tuple

from repro.utils.errors import InvalidModelError, MappingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.application import Application
    from repro.model.architecture import Architecture
    from repro.model.mapping import Mapping

_NODE = struct.Struct("<i")
_DELAY = struct.Struct("<q")

#: Byte width of one process's fields: its int32 node, float64 priority.
PROCESS_BYTES = 12


class KeyLayout:
    """Where each field of a design's key lives, for one application on
    one architecture.

    Construction computes the id orders, offsets and packed node
    indices only; the tables the moves and proposers read (allowed
    nodes, application orders, out-messages) are built on first use.  Two layouts are equal when
    they order the same process, message and node ids alike: keys
    built under equal layouts are interchangeable.
    """

    def __init__(
        self, application: "Application", architecture: "Architecture"
    ) -> None:
        self.application = application
        self.architecture = architecture
        pids = sorted(p.id for p in application.processes)
        mids = sorted(m.id for m in application.messages)
        self.pids: List[str] = pids
        self.mids: List[str] = mids
        self.node_ids: List[str] = architecture.node_ids
        self.node_index: Dict[str, int] = {
            nid: i for i, nid in enumerate(self.node_ids)
        }
        self._node_bytes = [_NODE.pack(i) for i in range(len(self.node_ids))]
        self.process_index: Dict[str, int] = {
            pid: p for p, pid in enumerate(pids)
        }
        self.message_index: Dict[str, int] = {
            mid: k for k, mid in enumerate(mids)
        }
        self.split = 2 * len(pids)
        self.delay_base = PROCESS_BYTES * len(pids)
        self._zeros: List[float] = [0] * (self.split + len(mids))
        self.struct = struct.Struct("<" + "id" * len(pids) + f"{len(mids)}q")
        self.identity = (tuple(pids), tuple(mids), tuple(self.node_ids))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeyLayout):
            return NotImplemented
        return self is other or self.identity == other.identity

    # ------------------------------------------------------------------
    # the edges: dicts in, dicts out
    # ------------------------------------------------------------------
    def pack(
        self,
        mapping: "Mapping",
        priorities: TMapping[str, float],
        message_delays: TMapping[str, int],
    ) -> bytes:
        """The key of one dict-built design.

        A priority or delay the design leaves out packs as the 0 both
        schedulers default it to; ids this layout does not have are
        ignored, as the schedulers ignore them.  Priorities are packed
        as float64 bits, so ``-0.0`` and ``0.0`` give different keys.

        Raises
        ------
        repro.utils.errors.MappingError
            If the mapping leaves a process unmapped.
        """
        assignment = mapping.as_dict()
        node = self.node_index
        pids = self.pids
        split = self.split
        values = self._zeros.copy()
        try:
            values[0:split:2] = [node[assignment[pid]] for pid in pids]
        except KeyError:
            mapping.validate_complete()
            raise
        values[1:split:2] = [priorities.get(pid, 0.0) for pid in pids]
        index = self.message_index
        for mid, delay in message_delays.items():
            k = index.get(mid)
            if k is not None:
                values[split + k] = delay
        return self.struct.pack(*values)

    def decode(
        self, key: bytes
    ) -> Tuple[Dict[str, str], Dict[str, float], Dict[str, int]]:
        """The assignment, priorities and nonzero delays ``key`` holds."""
        fields = self.struct.unpack(key)
        split = self.split
        node_ids = self.node_ids
        assignment = {
            pid: node_ids[n] for pid, n in zip(self.pids, fields[0:split:2])
        }
        priorities = dict(zip(self.pids, fields[1:split:2]))
        delays = {mid: d for mid, d in zip(self.mids, fields[split:]) if d}
        return assignment, priorities, delays

    # ------------------------------------------------------------------
    # reading one field
    # ------------------------------------------------------------------
    def node_at(self, key: bytes, p: int) -> int:
        """The node index of process ``p`` (key order)."""
        return _NODE.unpack_from(key, PROCESS_BYTES * p)[0]

    def delay_at(self, key: bytes, k: int) -> int:
        """The delay of message ``k`` (key order)."""
        return _DELAY.unpack_from(key, self.delay_base + 8 * k)[0]

    # ------------------------------------------------------------------
    # patching one field into a copy
    # ------------------------------------------------------------------
    def remapped(self, key: bytes, process_id: str, node_id: str) -> bytes:
        """``key`` with ``process_id`` on ``node_id``: one int32 written.

        Raises
        ------
        repro.utils.errors.MappingError
            If the process is unknown, the node is unknown, or the node
            is not in the process's allowed set (``Mapping.assign``'s
            checks and messages).
        """
        p = self.process_index.get(process_id)
        n = self.node_index.get(node_id)
        if p is None or n not in self.allowed[p]:
            self._refuse_remap(process_id, node_id)
        at = PROCESS_BYTES * p
        return key[:at] + self._node_bytes[n] + key[at + 4:]

    def swapped(self, key: bytes, first: str, second: str) -> bytes:
        """``key`` with two priorities exchanged, bit for bit.

        Raises
        ------
        repro.utils.errors.MappingError
            If either process is unknown.
        """
        index = self.process_index
        p = index.get(first)
        q = index.get(second)
        if p is None or q is None:
            self._process(first)
            self._process(second)
        if p > q:
            p, q = q, p
        elif p == q:
            return key
        a = PROCESS_BYTES * p + 4
        b = PROCESS_BYTES * q + 4
        return key[:a] + key[b:b + 8] + key[a + 8:b] + key[a:a + 8] + key[b + 8:]

    def delayed(self, key: bytes, message_id: str, delta: int) -> bytes:
        """``key`` with one message's delay moved by ``delta``, clamped
        at 0: one int64 written."""
        k = self.message_index.get(message_id)
        if k is None:
            raise InvalidModelError(
                f"unknown message {message_id!r} in application "
                f"{self.application.name!r}"
            )
        at = self.delay_base + 8 * k
        delay = max(0, _DELAY.unpack_from(key, at)[0] + delta)
        return key[:at] + _DELAY.pack(delay) + key[at + 8:]

    def _process(self, process_id: str) -> int:
        p = self.process_index.get(process_id)
        if p is None:
            raise MappingError(
                f"process {process_id!r} is not part of application "
                f"{self.application.name!r}"
            )
        return p

    def _refuse_remap(self, process_id: str, node_id: str) -> NoReturn:
        self._process(process_id)
        if node_id not in self.node_index:
            raise MappingError(f"unknown node {node_id!r}")
        process = self.application.process(process_id)
        raise MappingError(
            f"process {process_id!r} is not allowed on node {node_id!r} "
            f"(allowed: {list(process.allowed_nodes)})"
        )

    # ------------------------------------------------------------------
    # tables the moves and proposers read, built on first use
    # ------------------------------------------------------------------
    @cached_property
    def allowed(self) -> Tuple[Tuple[int, ...], ...]:
        """Per process (key order): its allowed node indices, in the
        sorted-id order of ``Process.allowed_nodes``."""
        node = self.node_index
        return tuple(
            tuple(
                node[nid]
                for nid in self.application.process(pid).allowed_nodes
                if nid in node
            )
            for pid in self.pids
        )

    @cached_property
    def processes(self) -> Tuple[int, ...]:
        """Key indices of the processes, in application order."""
        index = self.process_index
        return tuple(index[p.id] for p in self.application.processes)

    @cached_property
    def process_ids(self) -> Tuple[str, ...]:
        """Process ids, in application order."""
        return tuple(p.id for p in self.application.processes)

    @cached_property
    def messages(self) -> Tuple[Tuple[int, int, int], ...]:
        """``(message, source, destination)`` key indices, in
        application order."""
        message = self.message_index
        process = self.process_index
        return tuple(
            (message[m.id], process[m.src], process[m.dst])
            for m in self.application.messages
        )

    @cached_property
    def out_messages(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per process (key order): ``(message, destination)`` key
        indices of the messages it sends, in its graph's order."""
        application = self.application
        message = self.message_index
        process = self.process_index
        return tuple(
            tuple(
                (message[m.id], process[m.dst])
                for m in application.graph_of(pid).out_messages(pid)
            )
            for pid in self.pids
        )
