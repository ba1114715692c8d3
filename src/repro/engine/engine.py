"""The evaluation engine: compiled problem + cache + candidate solving.

:class:`EvaluationEngine` is the one inner loop every strategy shares.
It owns

* a :class:`~repro.engine.compiled_spec.CompiledSpec` (problem
  construction, done once),
* an optional :class:`~repro.engine.cache.EvaluationCache` (memoized
  solving), and
* the solver itself: a list scheduler, the optional
  :class:`~repro.engine.delta.DeltaEvaluator` (incremental solving of
  one-move children) and the :class:`StageTimings` sink.

Every candidate is solved in this process, one at a time, in input
order.  Process-level parallelism lives one layer up: the sharded
portfolio race (:mod:`repro.search.distributed`) runs one engine per
shard.

``core.strategy.DesignEvaluator`` is a thin facade over this class, so
existing strategy code keeps its historical API while all performance
work happens here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Sequence

from repro.engine.cache import DEFAULT_MAX_ENTRIES, CacheStats, EvaluationCache
from repro.engine.compiled_spec import CompiledSpec
from repro.engine.delta import DeltaEvaluator, DeltaStats
from repro.engine.evaluation import (
    EvaluatedDesign,
    StageTimings,
    evaluate_candidate,
)
from repro.engine.store import SqliteResultStore, StoreStats, make_store
from repro.sched.list_scheduler import ListScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import DesignMetrics
    from repro.core.strategy import DesignSpec
    from repro.core.transformations import CandidateDesign, Transformation
    from repro.sched.schedule import SystemSchedule


class EngineCounters(NamedTuple):
    """A point-in-time snapshot of every engine counter.

    The counter-level sibling of :class:`CacheStats` /
    :class:`DeltaStats`: one read returns all counters together
    (the portfolio runner records them as its race-level accounting),
    and two snapshots subtract (``after - before``) to attribute
    engine work to a window of activity.

    The ``*_ns`` fields are the stage-time buckets of the evaluation
    pipeline (scheduling pass, metric pricing, schedule decode).  They
    feed reporting only, never a decision.

    The ``store_*`` fields are the persistent result store's
    accounting: probes past the resident tier (hits/misses), rows
    flushed, and the wall time spent opening the database and
    committing write batches.  All zero on the memory backend.
    """

    evaluations: int
    cache_hits: int
    cache_misses: int
    delta_hits: int
    delta_fallbacks: int
    sched_ns: int = 0
    metrics_ns: int = 0
    decode_ns: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    store_open_ns: int = 0
    store_commit_ns: int = 0

    def __sub__(self, other: "EngineCounters") -> "EngineCounters":
        return EngineCounters(*(a - b for a, b in zip(self, other)))

    def __add__(self, other: "EngineCounters") -> "EngineCounters":  # type: ignore[override]
        """Field-wise merge -- fleet totals across shard engines."""
        return EngineCounters(*(a + b for a, b in zip(self, other)))


class EvaluationEngine:
    """Fast, cached evaluation of candidate designs.

    Parameters
    ----------
    spec:
        The design problem; compiled once at construction.
    use_cache:
        Memoize evaluation outcomes (including invalid verdicts).
    max_cache_entries:
        LRU bound of the cache (default
        :data:`repro.engine.cache.DEFAULT_MAX_ENTRIES`; ``None`` =
        unbounded).
    use_delta:
        Enable the incremental (move-aware) evaluation kernel: cold
        evaluations record scheduling traces, and the ``evaluate_move``
        / ``evaluate_moves`` APIs reschedule children from their
        parent's checkpoints.  Results are bit-identical either way;
        this is the CLI's ``--no-delta`` escape hatch.
    engine_core:
        ``"array"`` runs the structure-of-arrays scheduler kernel
        (:mod:`repro.sched.arrays`); ``"object"`` runs the pinned
        object-graph reference.  Results are byte-identical; this is
        the CLI's ``--engine-core`` switch.  Defaults to ``"object"``
        here (the strategy layer opts into ``"array"``).
    cache_store:
        Cache storage backend: ``"memory"`` (the historical in-process
        LRU) or ``"sqlite"`` (persistent across processes and runs;
        see :mod:`repro.engine.store`).  Results are byte-identical
        either way; this is the CLI's ``--cache-store`` switch.
    cache_path:
        Database file of the sqlite backend (required with
        ``cache_store="sqlite"``, ignored otherwise).
    store_read_only:
        Open the sqlite backend as a read-only shard view (distributed
        racing): warm rows are served from the database, new rows stay
        resident and are buffered for :meth:`drain_store_rows`, and
        the single read-write connection remains with the coordinating
        parent.  Ignored by the memory backend.
    """

    def __init__(
        self,
        spec: "DesignSpec",
        use_cache: bool = True,
        max_cache_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        use_delta: bool = True,
        engine_core: str = "object",
        cache_store: str = "memory",
        cache_path: Optional[str] = None,
        store_read_only: bool = False,
    ):
        self.spec = spec
        self.compiled = CompiledSpec(spec, engine_core=engine_core)
        self.cache: Optional[EvaluationCache] = None
        if use_cache:
            backend = make_store(
                cache_store,
                cache_path,
                self.compiled,
                max_cache_entries,
                read_only=store_read_only,
            )
            self.cache = EvaluationCache(max_cache_entries, store=backend)
        self._scheduler = ListScheduler(self.compiled.architecture)
        self.timings = StageTimings()
        self.delta: Optional[DeltaEvaluator] = (
            DeltaEvaluator(self.compiled, self._scheduler, self.timings)
            if use_delta
            else None
        )
        self.use_delta = use_delta
        self.evaluations = 0
        self.delta_hits = 0
        self.delta_fallbacks = 0
        self._closed = False

    # ------------------------------------------------------------------
    # solving (no cache, no accounting beyond the delta counters)
    # ------------------------------------------------------------------
    def _solve(self, design: "CandidateDesign") -> Optional[EvaluatedDesign]:
        """Full evaluation of one candidate.

        In delta mode the outcome carries its scheduling trace and
        metric memo so it can parent later incremental evaluations.
        """
        return evaluate_candidate(
            self.spec,
            self.compiled,
            self._scheduler,
            design,
            record_trace=self.delta is not None,
            timings=self.timings,
        )

    def _solve_move(
        self,
        parent: EvaluatedDesign,
        move: "Transformation",
        child: "CandidateDesign",
    ) -> Optional[EvaluatedDesign]:
        """Evaluation of one move (the delta hot path).

        Falls back to :meth:`_solve` -- counting a delta fallback --
        when the incremental path cannot run.
        """
        delta = self.delta
        if delta is None:
            return self._solve(child)
        if parent.trace is None:
            self.delta_fallbacks += 1
            return self._solve(child)
        outcome, used = delta.evaluate_move(parent, move, child)
        if used:
            self.delta_hits += 1
        else:
            self.delta_fallbacks += 1
        return outcome

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, design: "CandidateDesign") -> Optional[EvaluatedDesign]:
        """Schedule and price one candidate; ``None`` when invalid.

        Raises
        ------
        RuntimeError
            If the engine has been closed (even for would-be cache
            hits: a closed engine refuses all evaluation uniformly).
        """
        self._ensure_open()
        self.evaluations += 1
        if self.cache is None:
            return self._solve(design)
        signature = self.compiled.signature(design)
        found, outcome = self.cache.lookup(signature, design)
        if found:
            return outcome
        outcome = self._solve(design)
        self.cache.store(signature, outcome)
        self.cache.commit()
        return outcome

    def evaluate_many(
        self, designs: Sequence["CandidateDesign"]
    ) -> List[Optional[EvaluatedDesign]]:
        """Score a batch of candidates, preserving input order.

        Cached outcomes (including earlier candidates of the same
        batch) are served without scheduling; cache accounting is
        exactly that of a sequence of single :meth:`evaluate` calls.
        """
        self._ensure_open()
        designs = list(designs)
        self.evaluations += len(designs)
        if self.cache is None:
            return [self._solve(design) for design in designs]
        return self._cached_batch(
            self.cache, designs, lambda i: self._solve(designs[i])
        )

    def _cached_batch(
        self,
        cache: EvaluationCache,
        designs: List["CandidateDesign"],
        solve: Callable[[int], Optional[EvaluatedDesign]],
    ) -> List[Optional[EvaluatedDesign]]:
        """Cache loop shared by :meth:`evaluate_many` and
        :meth:`evaluate_moves`.

        One ordered lookup -> solve -> store pass, so cache accounting
        *and* LRU recency are exactly those of a sequence of single
        evaluations: the first occurrence of a fresh signature is a
        miss + store, every later use a hit + move-to-end, and an entry
        evicted before a later use (cache bound smaller than the
        batch's working set) misses and is solved again through
        ``solve(i)``.  The batch ends at the store commit boundary:
        buffered backend writes are flushed once, as one batch.
        """
        signature_of = self.compiled.signature
        results: List[Optional[EvaluatedDesign]] = []
        for i, design in enumerate(designs):
            signature = signature_of(design)
            found, outcome = cache.lookup(signature, design)
            if not found:
                outcome = solve(i)
                cache.store(signature, outcome)
            results.append(outcome)
        cache.commit()
        return results

    def evaluate_move(
        self, parent: EvaluatedDesign, move: "Transformation"
    ) -> Optional[EvaluatedDesign]:
        """Schedule and price the child of ``(parent, move)``.

        Exactly :meth:`evaluate` of ``move.apply(parent.design)`` --
        same outcome, same cache accounting -- but served through the
        incremental kernel when the engine runs in delta mode: the
        child is rescheduled from the parent's earliest dirty event
        instead of from scratch.  A parent without a trace (delta off,
        or from a non-traced source) falls back to a cold evaluation.

        Raises
        ------
        RuntimeError
            If the engine has been closed.
        """
        self._ensure_open()
        self.evaluations += 1
        child = move.apply(parent.design)
        if self.cache is None:
            return self._solve_move(parent, move, child)
        signature = self.compiled.signature(child)
        found, outcome = self.cache.lookup(signature, child)
        if found:
            return outcome
        outcome = self._solve_move(parent, move, child)
        self.cache.store(signature, outcome)
        self.cache.commit()
        return outcome

    def evaluate_moves(
        self,
        parent: EvaluatedDesign,
        moves: Sequence["Transformation"],
    ) -> List[Optional[EvaluatedDesign]]:
        """Score one parent's whole move neighbourhood, in input order.

        The move-aware sibling of :meth:`evaluate_many`: cached
        outcomes are served without scheduling, and the misses are
        rescheduled from the parent's checkpoints.  Cache accounting
        is exactly that of a sequence of single :meth:`evaluate_move`
        calls.
        """
        self._ensure_open()
        moves = list(moves)
        self.evaluations += len(moves)
        children = [move.apply(parent.design) for move in moves]
        if self.cache is None:
            return [
                self._solve_move(parent, move, child)
                for move, child in zip(moves, children)
            ]
        return self._cached_batch(
            self.cache,
            children,
            lambda i: self._solve_move(parent, moves[i], children[i]),
        )

    def price(self, schedule: "SystemSchedule") -> "DesignMetrics":
        """Metric evaluation of an already-built schedule.

        Used by strategies that obtain a schedule outside the candidate
        loop (AH reports the Initial Mapping's own schedule), so every
        objective value in the system comes from one code path.
        """
        from repro.core.metrics import evaluate_design

        return evaluate_design(schedule, self.spec.future, self.spec.weights)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self.cache.misses if self.cache is not None else 0

    def cache_stats(self) -> CacheStats:
        """Hit/miss accounting (all zeros when caching is disabled)."""
        if self.cache is None:
            return CacheStats(0, 0, 0)
        return self.cache.stats()

    def store_stats(self) -> StoreStats:
        """Persistent-store accounting (all zeros on the memory backend)."""
        if self.cache is None:
            return StoreStats()
        return self.cache.store_stats()

    @property
    def store_hits(self) -> int:
        return self.store_stats().hits

    @property
    def store_misses(self) -> int:
        return self.store_stats().misses

    @property
    def store_writes(self) -> int:
        return self.store_stats().writes

    @property
    def store_open_ns(self) -> int:
        return self.store_stats().open_ns

    @property
    def store_commit_ns(self) -> int:
        return self.store_stats().commit_ns

    def delta_stats(self) -> DeltaStats:
        """Delta hit/fallback accounting (zeros when delta is off)."""
        return DeltaStats(self.delta_hits, self.delta_fallbacks)

    @property
    def sched_ns(self) -> int:
        """Wall nanoseconds spent in scheduling passes."""
        return self.timings.sched_ns

    @property
    def metrics_ns(self) -> int:
        """Wall nanoseconds spent pricing metrics."""
        return self.timings.metrics_ns

    @property
    def decode_ns(self) -> int:
        """Wall nanoseconds spent decoding object schedules."""
        return self.timings.decode_ns

    def drain_store_rows(self) -> List[tuple]:
        """Hand over encoded result rows a read-only shard view buffered.

        Empty on the memory backend and on read-write stores (which
        persist their own rows at every commit boundary); see
        :meth:`SqliteResultStore.drain_rows`.
        """
        backend = self.cache.backend if self.cache is not None else None
        if isinstance(backend, SqliteResultStore):
            return backend.drain_rows()
        return []

    def absorb_store_rows(self, rows: Sequence[tuple]) -> None:
        """Persist rows drained from shard engines (parent side only).

        A no-op on the memory backend; see
        :meth:`SqliteResultStore.absorb_rows`.
        """
        if not rows:
            return
        backend = self.cache.backend if self.cache is not None else None
        if isinstance(backend, SqliteResultStore):
            backend.absorb_rows(rows)

    def counters(self) -> EngineCounters:
        """Snapshot of all counters (readable even after close)."""
        store = self.store_stats()
        return EngineCounters(
            evaluations=self.evaluations,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            delta_hits=self.delta_hits,
            delta_fallbacks=self.delta_fallbacks,
            sched_ns=self.sched_ns,
            metrics_ns=self.metrics_ns,
            decode_ns=self.decode_ns,
            store_hits=store.hits,
            store_misses=store.misses,
            store_writes=store.writes,
            store_open_ns=store.open_ns,
            store_commit_ns=store.commit_ns,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "EvaluationEngine is closed; build a fresh engine instead "
                "of evaluating through a closed one"
            )

    def close(self) -> None:
        """Retire the engine (idempotent).

        Closing is sticky: a closed engine refuses every later
        ``evaluate*`` call (``RuntimeError``), so misuse is loud;
        accounting accessors stay readable so strategies can record
        statistics after the search finished or failed.  The cache
        backend is flushed and released, so every memoized outcome of
        a completed run is durable.
        """
        self._closed = True
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
