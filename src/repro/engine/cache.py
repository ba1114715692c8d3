"""Memoization of candidate evaluations.

The search strategies revisit design points constantly: SA proposes a
move, rejects it, and proposes it again a hundred iterations later; the
steepest-descent neighbourhood of consecutive iterations overlaps
heavily (only the processes near the applied move change).  Since the
list scheduler is a deterministic function of the candidate triple
``(mapping, priorities, message_delays)``, every repeated evaluation is
pure waste.

:class:`EvaluationCache` memoizes evaluation outcomes -- including the
*invalid* verdict (``None``), which is exactly as expensive to
recompute -- keyed by :meth:`CompiledSpec.signature`.  Hit/miss
counters feed the per-run statistics surfaced in
:class:`repro.core.strategy.DesignResult` and the experiment reports.

Since the result-store refactor the cache is a thin *accounting* layer
over a :class:`~repro.engine.store.ResultStore` backend -- the
in-memory LRU by default, or the persistent sqlite store, which serves
results solved by earlier runs and other processes.  The backend owns
storage, recency and eviction; the cache owns the counters, so the
counter contract is identical over every backend.

Accounting and LRU recency are atomic by construction: every probe
goes through :meth:`lookup`, which counts the hit or miss and refreshes
recency in one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.engine.store import (
    DEFAULT_MAX_ENTRIES,
    MemoryResultStore,
    ResultStore,
    StoreStats,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections import OrderedDict

    from repro.core.transformations import CandidateDesign


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting of one cache over its lifetime."""

    hits: int
    misses: int
    entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class EvaluationCache:
    """Memo of signature -> evaluation outcome over a result store.

    Parameters
    ----------
    max_entries:
        Upper bound on resident outcomes; the least recently used
        entry is evicted beyond it.  Defaults to
        :data:`DEFAULT_MAX_ENTRIES`; ``None`` means unbounded.  Only
        used when ``store`` is not given.
    store:
        The storage backend.  Defaults to a fresh
        :class:`~repro.engine.store.MemoryResultStore` bounded by
        ``max_entries`` -- the historical in-memory cache, verbatim.
    """

    def __init__(
        self,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        store: Optional[ResultStore] = None,
    ):
        if store is None:
            store = MemoryResultStore(max_entries)
        self.backend: ResultStore = store
        self.max_entries = store.max_entries
        self.hits = 0
        self.misses = 0

    @property
    def _store(self) -> "OrderedDict[bytes, object]":
        """The resident tier's ordered entries (tests, diagnostics)."""
        return self.backend.entries

    def __len__(self) -> int:
        return len(self.backend)

    def lookup(
        self, signature: bytes, design: Optional["CandidateDesign"] = None
    ) -> Tuple[bool, Optional[object]]:
        """Return ``(found, outcome)``; counts the hit or miss.

        ``outcome`` is the memoized evaluation result -- possibly
        ``None`` for a cached invalid verdict -- and only meaningful
        when ``found`` is True.  Callers must branch on ``found``, not
        on the outcome's truthiness: treating a cached invalid as "not
        found" silently re-evaluates it every time.  ``design`` is the
        candidate ``signature`` was packed from; a persistent backend
        serves a database row with it (see :meth:`ResultStore.get`).
        """
        found, outcome = self.backend.get(signature, design)
        if not found:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, outcome

    def store(self, signature: bytes, outcome: Optional[object]) -> None:
        """Memoize one outcome (``None`` records an invalid candidate)."""
        self.backend.put(signature, outcome)

    def clear(self) -> None:
        """Drop every entry; counters keep accumulating."""
        self.backend.clear()

    def commit(self) -> None:
        """Flush backend write buffers (the store commit boundary)."""
        self.backend.commit()

    def close(self) -> None:
        """Flush and release the backend (idempotent)."""
        self.backend.close()

    def stats(self) -> CacheStats:
        """A snapshot of the accounting counters."""
        return CacheStats(self.hits, self.misses, len(self.backend))

    def store_stats(self) -> StoreStats:
        """The backend's persistent-tier accounting."""
        return self.backend.stats()
