"""Proposers: how a search step generates candidate moves.

A proposer turns the current :class:`EvaluatedDesign` into the list of
:class:`Transformation` moves the step will price.  The two concrete
proposers are the neighbourhood enumeration that used to live inside
``core.improvement`` (the Mapping Heuristic's high-potential
neighbourhood, also SA's polish phase) and the random-move generator
that used to live inside ``core.simulated_annealing`` (the Metropolis
walk).  Both propose exactly the moves, in the order, the pre-refactor
loops did, so seeded searches reproduce their trajectories
byte-for-byte; the neighbourhood now scores its candidates from one
kernel pass of the current design's key instead of a decoded schedule.

An empty proposal list terminates the search (nothing left to try) --
the kernel's ``exhausted-neighbourhood`` stop reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.transformations import (
    DelayMessage,
    RemapProcess,
    SwapPriorities,
    Transformation,
)
from repro.engine.evaluation import EvaluatedDesign
from repro.sched import native

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Union
    from repro.core.strategy import DesignSpec
    from repro.sched.arrays import ArrayRunState
    from repro.sched.native import NativeRunState


class Proposer(Protocol):
    """Generates the moves one search step will price."""

    def propose(
        self,
        spec: "DesignSpec",
        current: EvaluatedDesign,
        rng: Optional[np.random.Generator],
    ) -> List[Transformation]:
        """The moves to evaluate against ``current``; ``[]`` stops."""
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# high-potential neighbourhood (the Mapping Heuristic's move generator)
# ----------------------------------------------------------------------
class Neighbourhood:
    """One design's placement, read the way its neighbourhood is scored.

    One kernel pass on the design's packed key against the compiled
    spec its outcome carries -- the compiled pass when the module
    loaded, otherwise the Python pass with columns, which gives the
    same view -- yields the per-node busy runs, the jobs in pop order
    and each job's start.  Candidates and swap partners are read from
    those and from per-spec tables (:attr:`ArraySpec.process_jobs
    <repro.sched.arrays.ArraySpec.process_jobs>`, the metric geometry's
    ``T_min`` windows); no object schedule is decoded.  Outcomes of
    both cores carry their compiled spec, so one path serves both.
    """

    __slots__ = ("t_min", "arrays", "node_of", "state", "job_start", "_by_node")

    def __init__(self, spec: "DesignSpec", evaluated: EvaluatedDesign) -> None:
        compiled = evaluated.compiled
        arrays = compiled.arrays
        design = evaluated.design
        key = compiled.signature(design)
        state = arrays.schedule_design(
            design, columns=native.MODULE is None, key=key
        )
        if not state.success:
            raise ValueError(
                "the current design no longer schedules; its outcome "
                "and the compiled spec disagree"
            )
        layout = arrays.key_layout
        self.t_min = spec.future.t_min
        self.arrays = arrays
        self.node_of: Sequence[int] = layout.struct.unpack(key)[
            0:layout.split:2
        ]
        self.state: "Union[ArrayRunState, NativeRunState]" = state
        self.job_start: List[int] = state.job_start
        self._by_node: Optional[List[List[int]]] = None

    def rank_candidates(self, pool_size: int) -> List[str]:
        """Top current-application processes by improvement potential.

        Scoring follows the two design criteria: a process scores its
        node's slack fragmentation (criterion 1 -- moving it may
        coalesce gaps) plus 1 if any of its instances executes inside
        the node's worst ``T_min`` window (criterion 2 -- moving it
        directly relieves the binding window).  Larger WCETs, then
        smaller ids, win ties.  The fragmentation is
        ``1.0 - largest / total`` over the node's gaps, the expression
        of :class:`~repro.core.slack.FragmentationStats`, and the worst
        window is the first of least slack.
        """
        from repro.core.array_metrics import _node_data

        arrays = self.arrays
        geom = arrays.metric_geometry(self.t_min)
        width = geom.window_width
        lengths = geom.window_lengths
        frag: List[float] = []
        worst: List[Tuple[int, int]] = []
        state = self.state
        for runs_s, runs_e in zip(state.runs_s, state.runs_e):
            data = _node_data(runs_s, runs_e, geom)
            gaps = data.containers
            total = sum(gaps)
            frag.append(1.0 - max(gaps) / total if total else 0.0)
            w = data.window_slacks.index(data.window_min)
            worst.append((w * width, w * width + lengths[w]))

        wcet = arrays.wcet
        node_of = self.node_of
        job_start = self.job_start
        scored: List[Tuple[float, int, str]] = []
        for p, pid, jobs in arrays.process_jobs:
            n = node_of[p]
            duration = wcet[p][n]
            low, high = worst[n]
            score = frag[n]
            for j in jobs:
                start = job_start[j]
                if start < high and low < start + duration:
                    score += 1.0
                    break
            scored.append((score, duration, pid))
        scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
        return [pid for _, _, pid in scored[:pool_size]]

    def swap_neighbours(self, p: int) -> List[str]:
        """Current-application processes placed next to process ``p``
        (key index) on its node.

        Swapping priorities with a schedule neighbour realizes "move the
        process to a different slack on the *same* processor": the two
        trade places in the list-scheduling order.  A node's current
        jobs are ordered by ``(start, end)`` with pop order breaking
        ties, as ``SystemSchedule.entries_on`` orders them; starts on
        one node are distinct (its jobs never overlap and every WCET is
        positive), so a stable sort of the pop order by start is that
        order.
        """
        by_node = self._by_node
        if by_node is None:
            job_pid = self.arrays.job_pid
            node_of = self.node_of
            by_node = [[] for _ in self.arrays.node_ids]
            for j in self.state.pop_order:
                by_node[node_of[job_pid[j]]].append(j)
            for jobs in by_node:
                jobs.sort(key=self.job_start.__getitem__)
            self._by_node = by_node
        owner = self.arrays.job_pid
        entries = by_node[self.node_of[p]]
        last = len(entries) - 1
        partners: List[int] = []
        for i, j in enumerate(entries):
            if owner[j] != p:
                continue
            if i > 0 and owner[entries[i - 1]] != p:
                partners.append(owner[entries[i - 1]])
            if i < last and owner[entries[i + 1]] != p:
                partners.append(owner[entries[i + 1]])
        pids = self.arrays.pids
        return [pids[q] for q in dict.fromkeys(partners)]


def select_candidates(
    spec: "DesignSpec", evaluated: EvaluatedDesign, pool_size: int
) -> List[str]:
    """Top current-application processes by improvement potential; see
    :meth:`Neighbourhood.rank_candidates`."""
    return Neighbourhood(spec, evaluated).rank_candidates(pool_size)


def generate_moves(
    spec: "DesignSpec",
    evaluated: EvaluatedDesign,
    pool_size: int = 8,
    use_message_moves: bool = True,
) -> List[Transformation]:
    """The bounded high-potential neighbourhood of one design.

    Candidates and swap partners come from one :class:`Neighbourhood`
    pass; node indices and delays are read from the design's key, and
    the allowed nodes and out-messages from its layout's tables.
    """
    neighbourhood = Neighbourhood(spec, evaluated)
    candidates = neighbourhood.rank_candidates(pool_size)
    design = evaluated.design
    layout = design.layout
    key = design.key
    node_at = layout.node_at
    node_ids = layout.node_ids
    index = layout.process_index
    moves: List[Transformation] = []

    for pid in candidates:
        p = index[pid]
        current = node_at(key, p)
        for n in layout.allowed[p]:
            if n != current:
                moves.append(RemapProcess(pid, node_ids[n]))
        for neighbour in neighbourhood.swap_neighbours(p):
            moves.append(SwapPriorities(pid, neighbour))

    if use_message_moves:
        mids = layout.mids
        for pid in candidates:
            p = index[pid]
            source = node_at(key, p)
            for k, dst in layout.out_messages[p]:
                if source == node_at(key, dst):
                    continue
                moves.append(DelayMessage(mids[k], +1))
                if layout.delay_at(key, k) > 0:
                    moves.append(DelayMessage(mids[k], -1))
    return moves


@dataclass(frozen=True)
class NeighbourhoodProposer:
    """The Mapping Heuristic's high-potential neighbourhood, as a proposer.

    Attributes
    ----------
    pool_size:
        Number of highest-potential candidate processes per step.
    use_message_moves:
        Whether bus-slack (message-delay) moves are generated.
    """

    pool_size: int = 8
    use_message_moves: bool = True

    def propose(
        self,
        spec: "DesignSpec",
        current: EvaluatedDesign,
        rng: Optional[np.random.Generator],
    ) -> List[Transformation]:
        return generate_moves(
            spec, current, self.pool_size, self.use_message_moves
        )


# ----------------------------------------------------------------------
# random single moves (the Metropolis walk's move generator)
# ----------------------------------------------------------------------
def random_swap(
    process_ids: Sequence[str], rng: np.random.Generator
) -> Optional[Transformation]:
    """A priority swap between two distinct random processes."""
    if len(process_ids) < 2:
        return None
    i, j = rng.choice(len(process_ids), size=2, replace=False)
    return SwapPriorities(process_ids[int(i)], process_ids[int(j)])


def random_move(
    spec: "DesignSpec",
    current: EvaluatedDesign,
    rng: np.random.Generator,
) -> Optional[Transformation]:
    """Draw one random transformation of the current design.

    The draw sequence is exactly the annealer's historical one (move
    kind, then rejection-sampled operands, over the application's
    process and message orders), so seeded SA walks through the kernel
    reproduce the legacy walks byte-for-byte.  Node indices and delays
    are read from the design's key; the process and message lists and
    the allowed nodes are its layout's tables, built once per spec.
    """
    design = current.design
    layout = design.layout
    key = design.key
    processes = layout.processes
    if not processes:
        return None
    node_at = layout.node_at
    roll = rng.random()
    if roll < 0.55:
        # Remap a random process to a random *other* allowed node.
        allowed = layout.allowed
        for _ in range(8):
            p = processes[rng.integers(len(processes))]
            node = node_at(key, p)
            options = [n for n in allowed[p] if n != node]
            if options:
                return RemapProcess(
                    layout.pids[p],
                    layout.node_ids[options[rng.integers(len(options))]],
                )
        return random_swap(layout.process_ids, rng)
    messages = layout.messages
    if roll < 0.85 or not messages:
        return random_swap(layout.process_ids, rng)
    # Message-delay move on a random inter-node message.
    for _ in range(8):
        k, src, dst = messages[rng.integers(len(messages))]
        if node_at(key, src) != node_at(key, dst):
            delay = layout.delay_at(key, k)
            delta = +1 if delay == 0 or rng.random() < 0.5 else -1
            return DelayMessage(layout.mids[k], delta)
    return random_swap(layout.process_ids, rng)


@dataclass(frozen=True)
class RandomMoveProposer:
    """One random transformation per step (the Metropolis proposer)."""

    def propose(
        self,
        spec: "DesignSpec",
        current: EvaluatedDesign,
        rng: Optional[np.random.Generator],
    ) -> List[Transformation]:
        if rng is None:
            raise ValueError("RandomMoveProposer requires an rng")
        move = random_move(spec, current, rng)
        return [] if move is None else [move]
