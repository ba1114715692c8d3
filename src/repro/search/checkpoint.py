"""Serializable search state: pause any search, resume it anywhere.

A :class:`SearchCheckpoint` captures everything a
:class:`~repro.search.loop.SearchLoop` needs to continue exactly where
it stopped: the RNG stream state (numpy bit-generator state dict, so
the continuation draws the very next numbers the uninterrupted run
would have drawn), the current and incumbent design points as plain
dicts, the acceptor's mutable state (e.g. the Metropolis temperature),
the budget progress counters and the accumulated stats.

Everything is JSON-serializable: a budgeted search can be cut, shipped
to another process or host, and resumed against a freshly built
evaluation engine.  The resumed loop re-evaluates the two stored
designs to rebuild their outcomes (evaluation is deterministic, so the
rebuilt outcomes are bit-identical to the originals); the incumbent
trajectory of *cut + resume* equals the uninterrupted run's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.search.stats import SearchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import DesignSpec
    from repro.core.transformations import CandidateDesign


def design_to_dict(design: "CandidateDesign") -> dict:
    """Plain-dict wire form of one design point."""
    return {
        "mapping": design.mapping.as_dict(),
        "priorities": dict(design.priorities),
        "message_delays": dict(design.message_delays),
    }


def design_from_dict(data: dict, spec: "DesignSpec") -> "CandidateDesign":
    """Rebuild a design point against ``spec``'s model objects."""
    from repro.core.transformations import CandidateDesign
    from repro.model.mapping import Mapping

    return CandidateDesign(
        Mapping(spec.current, spec.architecture, dict(data["mapping"])),
        dict(data["priorities"]),
        {k: int(v) for k, v in data["message_delays"].items()},
    )


@dataclass
class SearchCheckpoint:
    """The complete resumable state of one search loop.

    Attributes
    ----------
    current:
        The walk's current design point (wire form).
    incumbent:
        The best design seen so far (wire form).
    incumbent_objective:
        Its objective value (informational; the resumed loop recomputes
        it from the re-evaluated incumbent).
    steps, evaluations, stall, seconds:
        Budget progress so far; the continuation keeps counting from
        these, so a ``Budget(max_steps=100)`` run cut at 40 steps
        resumes for exactly 60 more.
    rng_state:
        Numpy bit-generator state of the search RNG stream (``None``
        for deterministic searches that never draw).
    acceptor_state:
        The acceptor's :meth:`state_dict` (e.g. Metropolis
        temperature).
    stats:
        Accumulated :class:`SearchStats` of the run so far.
    """

    current: dict
    incumbent: dict
    incumbent_objective: float
    steps: int = 0
    evaluations: int = 0
    stall: int = 0
    seconds: float = 0.0
    rng_state: Optional[dict] = None
    acceptor_state: dict = field(default_factory=dict)
    stats: SearchStats = field(default_factory=SearchStats)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "current": self.current,
            "incumbent": self.incumbent,
            "incumbent_objective": self.incumbent_objective,
            "steps": self.steps,
            "evaluations": self.evaluations,
            "stall": self.stall,
            "seconds": self.seconds,
            "rng_state": self.rng_state,
            "acceptor_state": self.acceptor_state,
            "stats": self.stats.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchCheckpoint":
        return cls(
            current=dict(data["current"]),
            incumbent=dict(data["incumbent"]),
            incumbent_objective=float(data["incumbent_objective"]),
            steps=int(data["steps"]),
            evaluations=int(data["evaluations"]),
            stall=int(data["stall"]),
            seconds=float(data["seconds"]),
            rng_state=data.get("rng_state"),
            acceptor_state=dict(data.get("acceptor_state") or {}),
            stats=SearchStats.from_dict(dict(data["stats"])),
        )

    def to_json(self) -> str:
        """JSON wire form (newline-terminated for file friendliness)."""
        return json.dumps(self.to_dict(), sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SearchCheckpoint":
        return cls.from_dict(json.loads(text))


@dataclass
class MemberCheckpoint:
    """The resumable state of a whole strategy *pipeline*.

    A :class:`SearchCheckpoint` resumes one loop; a portfolio member is
    a pipeline of loops (SA: probe, walk, two polish descents) with a
    little inter-phase state.  When a shard cuts a member for stealing,
    the active loop contributes ``loop`` (its own checkpoint) and the
    strategy annotates ``phase`` (which pipeline stage was cut) plus
    ``carry`` (the JSON-safe inter-phase state accumulated *before*
    that stage -- completed-phase stats, the pre-polish incumbent, the
    calibration deltas).  ``strategy`` records the owning strategy name
    for sanity checks on resume.

    Size contract: everything here is O(current state) -- two designs,
    one RNG bit-generator state, a few counters -- never O(history).
    The wire form is produced *once per steal* (:meth:`to_json` at ship
    time); per-batch evaluation traffic never serializes any of it.
    """

    loop: SearchCheckpoint
    phase: str = ""
    carry: dict = field(default_factory=dict)
    strategy: str = ""

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "strategy": self.strategy,
            "phase": self.phase,
            "carry": self.carry,
            "loop": self.loop.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MemberCheckpoint":
        return cls(
            loop=SearchCheckpoint.from_dict(dict(data["loop"])),
            phase=str(data.get("phase", "")),
            carry=dict(data.get("carry") or {}),
            strategy=str(data.get("strategy", "")),
        )

    def to_json(self) -> str:
        """JSON wire form -- the steal/reship payload."""
        return json.dumps(self.to_dict(), sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MemberCheckpoint":
        return cls.from_dict(json.loads(text))


class MemberPaused(Exception):
    """Raised *out of* a search program cut by :class:`StealRequested`.

    Carries the :class:`MemberCheckpoint` the resumed program needs.
    The loop raises it with the bare loop checkpoint; each enclosing
    pipeline stage annotates ``checkpoint.phase`` / ``checkpoint.carry``
    as the exception unwinds, so by the time the shard driver catches
    it the payload describes the whole pipeline position.
    """

    def __init__(self, checkpoint: MemberCheckpoint):
        super().__init__("search program paused for migration")
        self.checkpoint = checkpoint
