"""The evaluation engine: compiled problem + cache + candidate solving.

:class:`EvaluationEngine` is the one inner loop every strategy shares.
It owns

* a :class:`~repro.engine.compiled_spec.CompiledSpec` (problem
  construction, done once),
* an optional :class:`~repro.engine.cache.EvaluationCache` (memoized
  solving), and
* the :class:`StageTimings` sink of the array scheduler and metric
  kernels that solve each miss.

Every cache miss is solved cold, in this process, one at a time, in
input order.  Process-level parallelism lives one layer up: the sharded
portfolio race (:mod:`repro.search.distributed`) runs one engine per
shard.

:class:`EngineConfig` carries the user-set engine values.  It is built
once at the edge (the CLI, the experiment config, the strategy
factory) and handed down unchanged; this module is the only reader of
its fields.

``core.strategy.DesignEvaluator`` is a thin facade over this class, so
existing strategy code keeps its historical API while all performance
work happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence

from repro.engine.cache import DEFAULT_MAX_ENTRIES, CacheStats, EvaluationCache
from repro.engine.compiled_spec import CompiledSpec
from repro.engine.evaluation import (
    EvaluatedDesign,
    StageTimings,
    evaluate_candidate,
)
from repro.engine.store import SqliteResultStore, StoreStats, make_store
from repro.utils.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import DesignSpec
    from repro.core.transformations import CandidateDesign


@dataclass(frozen=True)
class EngineConfig:
    """The user-set values of every evaluation engine of a run.

    Results are byte-identical under every setting; these values only
    decide what is remembered and where.

    Attributes
    ----------
    use_cache:
        Memoize evaluation outcomes, including invalid verdicts.
    cache_store:
        ``"memory"`` (the process-local LRU) or ``"sqlite"`` (that LRU
        backed by a database at ``cache_path``, persistent across
        processes and runs; see :mod:`repro.engine.store`).  The CLI's
        ``--cache-store``.
    cache_path:
        Database file of the sqlite store (``--cache-path``); required
        with it and refused without it.

    Raises
    ------
    repro.utils.errors.ConfigError
        At construction, for an unknown store, a sqlite store without
        a path, or a path with the memory store.  ``ConfigError`` is a
        ``ValueError``.
    """

    use_cache: bool = True
    cache_store: str = "memory"
    cache_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cache_store not in ("memory", "sqlite"):
            raise ConfigError(
                f"unknown cache_store {self.cache_store!r}; choose "
                f"'memory' or 'sqlite'"
            )
        if self.cache_store == "sqlite" and not self.cache_path:
            raise ConfigError(
                "cache_store='sqlite' requires a cache_path (the "
                "database file the results persist to)"
            )
        if self.cache_store == "memory" and self.cache_path is not None:
            raise ConfigError(
                f"cache_path {self.cache_path!r} needs "
                f"cache_store='sqlite'; the memory store keeps no file"
            )

    @property
    def persistent(self) -> bool:
        """Whether engines built from this config share a database
        (the sharded race then opens one parent-side writer for it)."""
        return self.use_cache and self.cache_store == "sqlite"


class EngineCounters(NamedTuple):
    """A point-in-time snapshot of every engine counter.

    The counter-level sibling of :class:`CacheStats`: one read returns
    all counters together (the portfolio runner records them as its
    race-level accounting), and two snapshots subtract (``after -
    before``) to attribute engine work to a window of activity.

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

    Every candidate runs the array scheduler and metric kernels
    (:mod:`repro.sched.arrays`, :mod:`repro.core.array_metrics`).
    A solved outcome has the shape a store-served one has: its design,
    its metrics and the compiled spec, with the schedule re-derived on
    first access; the pass's scheduler state is dropped once priced.

    Parameters
    ----------
    spec:
        The design problem; compiled once at construction.
    config:
        The user-set engine values (cache on/off, result store).
    max_cache_entries:
        LRU bound of the cache (default
        :data:`repro.engine.cache.DEFAULT_MAX_ENTRIES`; ``None`` =
        unbounded).
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
        config: EngineConfig = EngineConfig(),
        max_cache_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        store_read_only: bool = False,
    ):
        self.spec = spec
        self.compiled = CompiledSpec(spec)
        self.cache: Optional[EvaluationCache] = None
        if config.use_cache:
            backend = make_store(
                config.cache_store,
                config.cache_path,
                self.compiled,
                max_cache_entries,
                read_only=store_read_only,
            )
            self.cache = EvaluationCache(max_cache_entries, store=backend)
        self.timings = StageTimings()
        self.evaluations = 0
        self._closed = False

    # ------------------------------------------------------------------
    # solving (no cache, no accounting)
    # ------------------------------------------------------------------
    def _solve(self, design: "CandidateDesign") -> Optional[EvaluatedDesign]:
        """Cold evaluation of one candidate, without trace or memo."""
        return evaluate_candidate(
            self.spec, self.compiled, None, design, timings=self.timings
        )

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

        One ordered lookup -> solve -> store pass, so cache accounting
        *and* LRU recency are exactly those of a sequence of single
        :meth:`evaluate` calls: the first occurrence of a fresh
        signature is a miss + store, every later use (including later
        candidates of the same batch) a hit + move-to-end, and an
        entry evicted before a later use misses and is solved again.
        The batch ends at the store commit boundary: buffered backend
        writes are flushed once, as one batch.
        """
        self._ensure_open()
        designs = list(designs)
        self.evaluations += len(designs)
        cache = self.cache
        if cache is None:
            return [self._solve(design) for design in designs]
        signature_of = self.compiled.signature
        results: List[Optional[EvaluatedDesign]] = []
        for design in designs:
            signature = signature_of(design)
            found, outcome = cache.lookup(signature, design)
            if not found:
                outcome = self._solve(design)
                cache.store(signature, outcome)
            results.append(outcome)
        cache.commit()
        return results

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
