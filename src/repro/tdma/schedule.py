"""Mutable bus occupancy: which bytes of which slot occurrence are used.

:class:`BusSchedule` is the communication half of a system schedule.
It tracks, per (node, round) slot occurrence, the bytes consumed by
scheduled messages, supports earliest-fit queries for the scheduler,
frozen reservations for existing applications (requirement (a)), and
residual-capacity queries for the design metrics (C1m, C2m).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

from repro.tdma.bus import Slot, TdmaBus
from repro.utils.errors import SchedulingError
from repro.utils.intervals import Interval


@lru_cache(maxsize=64)
def _occurrence_order(
    slots: Tuple[Slot, ...], horizon: int
) -> Tuple[Tuple[str, int, int], ...]:
    """Usable slot occurrences as ``(node, round, capacity)``, by start.

    A pure function of the round layout and the horizon, cached so the
    residual extraction of every metric evaluation walks a precomputed
    order instead of re-deriving and re-sorting it.  Keyed on the slot
    tuple's value, not on a bus (which hashes by identity): equal
    layouts share one entry and the cache keeps no bus alive.
    """
    bus = TdmaBus(slots)
    items: List[Tuple[int, str, int, int]] = []
    round_length = bus.round_length
    for slot in bus.slots:
        offset = bus.slot_offset(slot.node_id)
        for r in range(bus.occurrence_count_within(slot.node_id, horizon)):
            items.append(
                (r * round_length + offset, slot.node_id, r, slot.capacity)
            )
    items.sort()
    return tuple((node_id, r, cap) for _, node_id, r, cap in items)


def occurrence_order(bus: TdmaBus, horizon: int) -> Tuple[Tuple[str, int, int], ...]:
    """Public accessor of the cached occurrence order (metrics layer)."""
    return _occurrence_order(bus.slots, horizon)


@dataclass(frozen=True)
class SlotOccupancy:
    """Bytes used by one message in one slot occurrence.

    Attributes
    ----------
    message_id:
        The message occupying the bytes.
    instance:
        Which periodic instance of the message (0-based within the
        hyperperiod).
    node_id:
        Owner of the slot (the sender node).
    round_index:
        Which occurrence of the round within the horizon.
    size:
        Payload bytes consumed.
    frozen:
        True when the entry belongs to an existing application and must
        not be moved or removed by the current design process.
    """

    message_id: str
    instance: int
    node_id: str
    round_index: int
    size: int
    frozen: bool = False


class BusSchedule:
    """Byte-level occupancy of every slot occurrence within a horizon.

    Parameters
    ----------
    bus:
        The static TDMA round layout.
    horizon:
        Schedule length in time units (the system hyperperiod).  Only
        slot occurrences fully inside the horizon exist.
    """

    def __init__(self, bus: TdmaBus, horizon: int):
        if horizon <= 0:
            raise SchedulingError(f"bus horizon must be positive, got {horizon}")
        self.bus = bus
        self.horizon = horizon
        self._rounds = bus.rounds_within(horizon)
        # Usable occurrences per node: windows ending at or before the
        # horizon, including slots early in a final partial round.
        self._occurrence_counts: Dict[str, int] = {
            node_id: bus.occurrence_count_within(node_id, horizon)
            for node_id in bus.node_ids()
        }
        # used bytes per (node_id, round_index)
        self._used: Dict[Tuple[str, int], int] = {}
        # entries per (node_id, round_index)
        self._entries: Dict[Tuple[str, int], List[SlotOccupancy]] = {}
        # quick lookup: (message_id, instance) -> occupancy
        self._by_message: Dict[Tuple[str, int], SlotOccupancy] = {}

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Number of complete rounds inside the horizon."""
        return self._rounds

    def occurrence_count(self, node_id: str) -> int:
        """Usable occurrences of ``node_id``'s slot inside the horizon."""
        self.bus.slot_of(node_id)  # raises for unknown nodes
        return self._occurrence_counts[node_id]

    def used_bytes(self, node_id: str, round_index: int) -> int:
        """Bytes already consumed in the given slot occurrence."""
        self._check_occurrence(node_id, round_index)
        return self._used.get((node_id, round_index), 0)

    def free_bytes(self, node_id: str, round_index: int) -> int:
        """Residual payload capacity of the given slot occurrence."""
        self._check_occurrence(node_id, round_index)
        capacity = self.bus.slot_of(node_id).capacity
        return capacity - self._used.get((node_id, round_index), 0)

    def entries(self, node_id: str, round_index: int) -> List[SlotOccupancy]:
        """Occupancies recorded in the given slot occurrence."""
        self._check_occurrence(node_id, round_index)
        return list(self._entries.get((node_id, round_index), ()))

    def all_entries(self) -> Iterator[SlotOccupancy]:
        """Every occupancy in the schedule, in no particular order."""
        for entries in self._entries.values():
            yield from entries

    def occupancy_of(self, message_id: str, instance: int) -> Optional[SlotOccupancy]:
        """The occupancy of a message instance, or None if unscheduled."""
        return self._by_message.get((message_id, instance))

    def _check_occurrence(self, node_id: str, round_index: int) -> None:
        self.bus.slot_of(node_id)  # raises for unknown nodes
        count = self._occurrence_counts[node_id]
        if not 0 <= round_index < count:
            raise SchedulingError(
                f"round index {round_index} outside horizon "
                f"(slot of {node_id!r} has {count} usable occurrences)"
            )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def earliest_round_with_room(
        self, node_id: str, size: int, ready: int
    ) -> Optional[int]:
        """Earliest slot occurrence that can carry ``size`` bytes.

        The occurrence must *start* at or after ``ready`` (the frame is
        assembled before the slot opens) and end inside the horizon.
        Returns the round index, or ``None`` when no occurrence fits.
        The scan reads the used-bytes map directly (no per-round
        bounds checks) -- this is the message hot path of every
        scheduling pass.
        """
        slot = self.bus.slot_of(node_id)
        threshold = slot.capacity - size
        if threshold < 0:
            return None
        r = self.bus.first_occurrence_not_before(node_id, ready)
        count = self._occurrence_counts[node_id]
        used = self._used
        while r < count:
            if used.get((node_id, r), 0) <= threshold:
                return r
            r += 1
        return None

    def place(
        self,
        message_id: str,
        instance: int,
        node_id: str,
        round_index: int,
        size: int,
        frozen: bool = False,
    ) -> SlotOccupancy:
        """Record ``size`` bytes of ``message_id`` in a slot occurrence.

        Raises
        ------
        repro.utils.errors.SchedulingError
            If the occurrence lacks capacity, lies outside the horizon,
            or the message instance is already placed.
        """
        self._check_occurrence(node_id, round_index)
        if size <= 0:
            raise SchedulingError(
                f"message {message_id!r} has non-positive size {size}"
            )
        key = (message_id, instance)
        if key in self._by_message:
            raise SchedulingError(
                f"message {message_id!r} instance {instance} already scheduled"
            )
        if self.free_bytes(node_id, round_index) < size:
            raise SchedulingError(
                f"slot occurrence ({node_id!r}, round {round_index}) cannot "
                f"fit {size} bytes of message {message_id!r}"
            )
        occ = SlotOccupancy(message_id, instance, node_id, round_index, size, frozen)
        slot_key = (node_id, round_index)
        self._used[slot_key] = self._used.get(slot_key, 0) + size
        self._entries.setdefault(slot_key, []).append(occ)
        self._by_message[key] = occ
        return occ

    def remove(self, message_id: str, instance: int) -> None:
        """Remove a previously placed, non-frozen message instance.

        Raises
        ------
        repro.utils.errors.SchedulingError
            If the instance is unknown or frozen (existing applications
            must not be modified -- requirement (a)).
        """
        key = (message_id, instance)
        occ = self._by_message.get(key)
        if occ is None:
            raise SchedulingError(
                f"message {message_id!r} instance {instance} is not scheduled"
            )
        if occ.frozen:
            raise SchedulingError(
                f"message {message_id!r} instance {instance} belongs to an "
                f"existing application and cannot be removed"
            )
        slot_key = (occ.node_id, occ.round_index)
        self._used[slot_key] -= occ.size
        self._entries[slot_key].remove(occ)
        del self._by_message[key]

    def arrival_time(self, occ: SlotOccupancy) -> int:
        """When the message of ``occ`` is available at every receiver.

        TTP broadcasts the whole slot; receivers see the payload at the
        end of the slot occurrence.
        """
        return self.bus.occurrence_window(occ.node_id, occ.round_index).end

    # ------------------------------------------------------------------
    # metrics support
    # ------------------------------------------------------------------
    def residuals(self) -> List[Tuple[Interval, int]]:
        """(occurrence window, free bytes) for every slot occurrence.

        The bus-side *slack containers* used by metric C1m: each slot
        occurrence with residual capacity is a bin of that many bytes.
        Ordered by window start (slots within a round are already in
        transmission order).
        """
        out: List[Tuple[Interval, int]] = []
        round_length = self.bus.round_length
        for slot in self.bus.slots:
            offset = self.bus.slot_offset(slot.node_id)
            for r in range(self._occurrence_counts[slot.node_id]):
                used = self._used.get((slot.node_id, r), 0)
                start = r * round_length + offset
                out.append(
                    (Interval(start, start + slot.length), slot.capacity - used)
                )
        out.sort(key=lambda item: item[0].start)
        return out

    def residual_bytes(self) -> List[int]:
        """Free bytes of every slot occurrence, in window-start order.

        The container list of metric C1m without the window intervals
        :meth:`residuals` materializes -- the metric hot path drops
        them anyway, and building one :class:`Interval` per occurrence
        dominates the extraction cost on long horizons.
        """
        used = self._used
        return [
            capacity - used.get((node_id, r), 0)
            for node_id, r, capacity in occurrence_order(self.bus, self.horizon)
        ]

    def occupancy_equals(self, other: "BusSchedule") -> bool:
        """Whether both schedules consume identical bytes per occurrence.

        Byte-occupancy equality is exactly what the bus-side metrics
        (C1m, C2m) depend on; the delta evaluator uses this to reuse a
        parent's bus metric inputs when a resumed pass re-placed every
        message where the parent had it.
        """
        return self.bus is other.bus and self._used == other._used

    def occupancy_diff(
        self, other: "BusSchedule"
    ) -> List[Tuple[Tuple[str, int], int]]:
        """Per-occurrence used-byte deltas ``self - other``.

        The sparse difference the incremental metric layer patches a
        parent's residual vector with; empty when the two schedules
        occupy the bus identically.
        """
        mine = self._used
        theirs = other._used
        diff: List[Tuple[Tuple[str, int], int]] = []
        for key, used in mine.items():
            previous = theirs.get(key, 0)
            if used != previous:
                diff.append((key, used - previous))
        for key, used in theirs.items():
            if used and key not in mine:
                diff.append((key, -used))
        return diff

    def used_map(self) -> Dict[Tuple[str, int], int]:
        """The live used-bytes map keyed by ``(node, round)`` (read-only)."""
        return self._used

    def free_bytes_within(self, window: Interval) -> int:
        """Total residual bytes of occurrences fully inside ``window``.

        Used by metric C2m: bandwidth available to a future application
        inside one T_min window.  Computed arithmetically (capacity of
        the in-window occurrences minus the in-window used bytes), so
        the cost is O(slots + scheduled messages), not O(rounds).
        """
        round_length = self.bus.round_length
        total = 0
        offsets: Dict[str, int] = {}
        lengths: Dict[str, int] = {}
        for slot in self.bus.slots:
            offset = self.bus.slot_offset(slot.node_id)
            offsets[slot.node_id] = offset
            lengths[slot.node_id] = slot.length
            # Rounds r with window.start <= r*L + offset and
            # r*L + offset + length <= window.end.
            r_lo = max(0, -(-(window.start - offset) // round_length))
            r_hi = min(
                self._occurrence_counts[slot.node_id] - 1,
                (window.end - offset - slot.length) // round_length,
            )
            if r_hi >= r_lo:
                total += (r_hi - r_lo + 1) * slot.capacity
        for (node_id, r), used in self._used.items():
            start = r * round_length + offsets[node_id]
            if start >= window.start and start + lengths[node_id] <= window.end:
                total -= used
        return total

    def total_free_bytes(self) -> int:
        """Residual capacity summed over the whole horizon."""
        capacity = self.bus.total_capacity_within(self.horizon)
        return capacity - sum(self._used.values())

    def copy(self) -> "BusSchedule":
        """A deep, independent copy (occupancies are immutable records)."""
        out = BusSchedule(self.bus, self.horizon)
        out._used = dict(self._used)
        out._entries = {k: list(v) for k, v in self._entries.items()}
        out._by_message = dict(self._by_message)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BusSchedule(rounds={self._rounds}, "
            f"messages={len(self._by_message)}, "
            f"free={self.total_free_bytes()}B)"
        )
