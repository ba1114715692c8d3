"""Result stores: the persistence tier behind the evaluation cache.

At service scale the dominant waste is re-solving scenarios some other
process (or an earlier run) already solved.  This module lifts the
cache's storage out of :class:`~repro.engine.cache.EvaluationCache`
into a :class:`ResultStore` protocol with two backends:

* :class:`MemoryResultStore` -- the original in-memory LRU, verbatim.
  ``get`` refreshes recency, ``put`` evicts the least recently used
  entry beyond ``max_entries``; nothing survives the process.
* :class:`SqliteResultStore` -- a two-tier store: the same resident
  LRU in front of a persistent sqlite database (WAL mode) keyed by
  ``(scenario, signature)``.  Misses in the resident tier probe the
  database and promote hits; writes are buffered and flushed as one
  ``executemany`` batch per :meth:`~SqliteResultStore.commit` (the
  engine commits at the end of every public evaluation call).  Keys
  are the packed ``bytes`` of :meth:`CompiledSpec.signature`, bound
  as they are; a valid design's row is one fixed binary metrics
  record, and a hit is served with the caller's own design.

Within one run the two backends behave identically -- the resident
tier is authoritative, and LRU evictions / ``clear()`` are mirrored to
the database -- so the cache's counter/LRU contract holds byte-for-byte
over both.  Across runs the sqlite backend turns cold evaluations into
store hits: a warm restart of the same scenario re-prices nothing.

**Single-writer rule.**  Exactly one read-write store may own a
database path at a time (the engine of the coordinating process);
shard engines of a distributed race and concurrent readers open
``read_only`` instances, which buffer their new rows; shards ship
those to the coordinator, which persists them through its one
connection.  All writes funnel through that commit boundary, so
determinism across shard counts is untouched.

**Degradation.**  Corruption (of the file or of a single row),
permission and schema-version problems never take the run down: the
store warns (``RuntimeWarning``) and continues memory-only, i.e. with
exactly the semantics of :class:`MemoryResultStore`.  Loud, not fatal.

Layering: this module sits in ``engine`` and therefore imports the
``serialize`` codecs (a later layer) lazily, inside functions -- the
same sanctioned pattern :mod:`repro.engine.evaluation` uses for core
imports.
"""

from __future__ import annotations

import sqlite3
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
)

from repro.engine.evaluation import EvaluatedDesign

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.transformations import CandidateDesign
    from repro.engine.compiled_spec import CompiledSpec

#: Layout/encoding version of the sqlite schema, of the signature's
#: packed layout and of the metrics record.  A database written by a
#: different version degrades loudly to memory-only instead of being
#: misread.
SCHEMA_VERSION = 2

#: Sentinel distinguishing "not stored" from a stored invalid verdict
#: (``None`` is a first-class stored value).
_MISSING = object()

#: Default LRU bound of the resident tier.  Far above the
#: reproduction's iteration budgets (so no behavior change), but it
#: keeps a long-running search from retaining one full schedule per
#: distinct candidate forever.
DEFAULT_MAX_ENTRIES = 65536


@dataclass(frozen=True)
class StoreStats:
    """Accounting of one store's *persistent* tier.

    ``hits``/``misses`` count probes that went past the resident tier
    (a memory-only store never probes, so both stay 0); ``writes``
    counts rows flushed to the database; ``open_ns``/``commit_ns`` are
    the wall time spent opening the database and committing batches --
    reporting only, never a decision.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    open_ns: int = 0
    commit_ns: int = 0


class ResultStore(Protocol):
    """Storage contract behind :class:`~repro.engine.cache.EvaluationCache`.

    The cache owns hit/miss *accounting*; a store owns *storage*:
    recency, eviction, persistence.  ``get`` refreshes recency (the
    cache's ``lookup`` path), and ``None`` is a first-class stored
    outcome (a memoized invalid verdict).  ``design`` is the candidate
    the key was packed from: a persistent backend stores metrics only
    and serves a database row as an outcome for that design.
    """

    max_entries: Optional[int]

    def __len__(self) -> int: ...

    @property
    def entries(self) -> "OrderedDict[bytes, object]": ...

    def get(
        self, signature: bytes, design: Optional["CandidateDesign"] = None
    ) -> Tuple[bool, Optional[object]]: ...

    def put(
        self, signature: bytes, outcome: Optional[object]
    ) -> Optional[bytes]: ...

    def clear(self) -> None: ...

    def commit(self) -> None: ...

    def close(self) -> None: ...

    def stats(self) -> StoreStats: ...


class MemoryResultStore:
    """The in-memory LRU store (the original cache storage, verbatim).

    Parameters
    ----------
    max_entries:
        Upper bound on stored outcomes; the least recently used entry
        is evicted beyond it.  Defaults to :data:`DEFAULT_MAX_ENTRIES`;
        ``None`` means unbounded.
    """

    def __init__(self, max_entries: Optional[int] = DEFAULT_MAX_ENTRIES):
        if max_entries is not None and max_entries <= 0:
            raise ValueError(
                f"max_entries must be positive or None, got {max_entries}"
            )
        self.max_entries = max_entries
        #: Insertion-ordered storage; the front is the eviction end.
        self.entries: "OrderedDict[bytes, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self.entries)

    def get(
        self, signature: bytes, design: Optional["CandidateDesign"] = None
    ) -> Tuple[bool, Optional[object]]:
        """Return ``(found, outcome)``; a find refreshes LRU recency."""
        value = self.entries.get(signature, _MISSING)
        if value is _MISSING:
            return False, None
        self.entries.move_to_end(signature)
        return True, value

    def put(
        self, signature: bytes, outcome: Optional[object]
    ) -> Optional[bytes]:
        """Store one outcome; returns the evicted signature, if any.

        The eviction report is what lets a layered store (sqlite) keep
        its persistent tier in lockstep with the resident LRU.
        """
        self.entries[signature] = outcome
        self.entries.move_to_end(signature)
        if self.max_entries is not None and len(self.entries) > self.max_entries:
            evicted, _ = self.entries.popitem(last=False)
            return evicted
        return None

    def clear(self) -> None:
        """Drop every entry."""
        self.entries.clear()

    def commit(self) -> None:
        """Nothing buffered; memory writes are immediate."""

    def close(self) -> None:
        """Nothing to release."""

    def stats(self) -> StoreStats:
        """All zeros: a memory store has no persistent tier."""
        return StoreStats()


class SqliteResultStore:
    """Persistent two-tier result store over sqlite3.

    Layout (``SCHEMA_VERSION`` rows what follows):

    * ``meta(key TEXT PRIMARY KEY, value TEXT)`` -- holds
      ``schema_version``;
    * ``results(scenario TEXT, signature BLOB, payload BLOB,
      PRIMARY KEY (scenario, signature)) WITHOUT ROWID`` -- one row per
      evaluated candidate, scenario-scoped so unrelated problems share
      a file; one b-tree serves both the probe and the write.
      ``signature`` is the packed key of
      :meth:`~repro.engine.compiled_spec.CompiledSpec.signature`.

    A row holds one of the engine's two outcomes, by prefix byte:
    ``b"I"`` alone = memoized invalid verdict (``None``); ``b"E"`` +
    the 56-byte :func:`~repro.serialize.store_key.metrics_record` = a
    valid design's :class:`~repro.core.metrics.DesignMetrics` (a hit
    pairs them with the caller's design, and the schedule is
    re-derived lazily on first access -- storing full schedules would
    force the decode the lazy array path exists to avoid).  Storing
    any other outcome raises ``TypeError``; a row that does not decode
    degrades the store (see :meth:`get`).

    Parameters
    ----------
    path:
        Database file.  Created (with schema) when missing, unless
        ``read_only``.
    compiled:
        The compiled problem store rows belong to; required to serve
        ``b"E"`` rows as :class:`EvaluatedDesign` objects (it re-derives
        their schedules) and to derive the scenario key.  ``None``
        restricts the store to invalid verdicts.
    max_entries:
        Resident-tier LRU bound (same meaning as the memory store's).
    scenario:
        Explicit scenario key; defaults to
        :func:`repro.serialize.store_key.spec_store_key` of the
        compiled spec (empty string without one).
    read_only:
        Open the database read-only (shard engines of a distributed
        race, concurrent readers).  New results stay in the resident
        tier and are additionally buffered in their encoded row form,
        surviving :meth:`commit`, so the process owning the single
        read-write store can :meth:`drain_rows` them (over IPC, for a
        shard) and persist them with :meth:`absorb_rows`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        compiled: Optional["CompiledSpec"] = None,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        scenario: Optional[str] = None,
        read_only: bool = False,
    ):
        self.memory = MemoryResultStore(max_entries)
        self.max_entries = self.memory.max_entries
        self.path = str(path)
        self.compiled = compiled
        self.read_only = read_only
        self.scenario = (
            scenario if scenario is not None else self._derive_scenario(compiled)
        )
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.open_ns = 0
        self.commit_ns = 0
        #: Encoded rows awaiting the next commit (read-write) or the
        #: next drain (read-only), in insertion order.
        self._pending: "OrderedDict[bytes, bytes]" = OrderedDict()
        #: Uncommitted (but already executed) deletes exist.
        self._dirty = False
        # Set before _connect(): a failed first open degrades through
        # _degrade(), which swaps this attribute.
        self._conn: Optional[sqlite3.Connection] = None
        self._conn = self._connect()

    # ------------------------------------------------------------------
    # connection / schema
    # ------------------------------------------------------------------
    @staticmethod
    def _derive_scenario(compiled: Optional["CompiledSpec"]) -> str:
        if compiled is None:
            return ""
        from repro.serialize.store_key import spec_store_key

        return spec_store_key(compiled.spec)

    @property
    def persistent(self) -> bool:
        """Whether the database tier is (still) attached."""
        return self._conn is not None

    def _degrade(self, reason: str) -> None:
        """Drop the database tier, loudly; keep serving from memory."""
        warnings.warn(
            f"result store {self.path!r} unusable ({reason}); continuing "
            "memory-only -- results from this run will not persist",
            RuntimeWarning,
            stacklevel=3,
        )
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def _connect(self) -> Optional[sqlite3.Connection]:
        start = time.perf_counter_ns()
        try:
            if self.read_only:
                uri = f"file:{self.path}?mode=ro"
                conn = sqlite3.connect(uri, uri=True)
            else:
                conn = sqlite3.connect(self.path)
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                version = self._schema_version(conn)
                if version is None and not self.read_only:
                    conn.execute(
                        "CREATE TABLE IF NOT EXISTS meta ("
                        "key TEXT PRIMARY KEY, value TEXT NOT NULL)"
                    )
                    conn.execute(
                        "CREATE TABLE IF NOT EXISTS results ("
                        "scenario TEXT NOT NULL, signature BLOB NOT NULL, "
                        "payload BLOB NOT NULL, "
                        "PRIMARY KEY (scenario, signature)) WITHOUT ROWID"
                    )
                    conn.execute(
                        "INSERT OR REPLACE INTO meta (key, value) "
                        "VALUES ('schema_version', ?)",
                        (str(SCHEMA_VERSION),),
                    )
                    conn.commit()
                    version = SCHEMA_VERSION
                if version != SCHEMA_VERSION:
                    conn.close()
                    self._degrade(
                        f"schema version {version!r}, supported "
                        f"{SCHEMA_VERSION}"
                    )
                    return None
            except sqlite3.Error:
                conn.close()
                raise
            return conn
        except (sqlite3.Error, OSError, ValueError) as exc:
            self._degrade(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.open_ns += time.perf_counter_ns() - start

    @staticmethod
    def _schema_version(conn: sqlite3.Connection) -> Optional[int]:
        try:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.Error:
            return None
        if row is None:
            return None
        try:
            return int(row[0])
        except (TypeError, ValueError):
            return -1

    # ------------------------------------------------------------------
    # ResultStore surface
    # ------------------------------------------------------------------
    @property
    def entries(self) -> "OrderedDict[bytes, object]":
        """The resident tier's ordered entries (diagnostic access)."""
        return self.memory.entries

    def __len__(self) -> int:
        """Resident entries only (the cache-visible working set)."""
        return len(self.memory)

    def get(
        self, signature: bytes, design: Optional["CandidateDesign"] = None
    ) -> Tuple[bool, Optional[object]]:
        """Two-tier lookup; database finds are decoded and promoted.

        A ``b"E"`` row becomes an :class:`EvaluatedDesign` of
        ``design``, which must then be given.  A row that does not
        decode -- unknown kind, wrong record length -- degrades the
        store loudly and counts as a miss, so the caller solves the
        candidate again.
        """
        found, outcome = self.memory.get(signature)
        if found:
            return True, outcome
        if self._conn is None:
            return False, None
        try:
            row = self._conn.execute(
                "SELECT payload FROM results "
                "WHERE scenario = ? AND signature = ?",
                (self.scenario, signature),
            ).fetchone()
        except sqlite3.Error as exc:
            self._degrade(f"{type(exc).__name__}: {exc}")
            row = None
        if row is None:
            self.misses += 1
            return False, None
        try:
            outcome = self._decode(row[0], design)
        except ValueError as exc:
            self._degrade(f"corrupt row: {exc}")
            self.misses += 1
            return False, None
        self.hits += 1
        self._mirror_evict(self.memory.put(signature, outcome))
        return True, outcome

    def put(
        self, signature: bytes, outcome: Optional[object]
    ) -> Optional[bytes]:
        """Store in the resident tier and buffer the database row."""
        row = self._encode(outcome)
        evicted = self.memory.put(signature, outcome)
        if self.read_only or self._conn is not None:
            self._pending[signature] = row
            self._pending.move_to_end(signature)
        self._mirror_evict(evicted)
        return evicted

    def _mirror_evict(self, evicted: Optional[bytes]) -> None:
        """Keep the database in lockstep with resident LRU evictions.

        An entry the resident LRU dropped must *miss* on its next
        lookup -- exactly as it does on the memory backend -- so the
        cache contract stays byte-identical across backends.  The
        delete executes immediately (visible to this connection's own
        probes) and is made durable by the next :meth:`commit`.  A
        read-only view deletes nothing and keeps the evicted row in
        its export buffer.
        """
        if evicted is None or self.read_only:
            return
        self._pending.pop(evicted, None)
        if self._conn is None:
            return
        try:
            self._conn.execute(
                "DELETE FROM results WHERE scenario = ? AND signature = ?",
                (self.scenario, evicted),
            )
            self._dirty = True
        except sqlite3.Error as exc:
            self._degrade(f"{type(exc).__name__}: {exc}")

    def clear(self) -> None:
        """Drop every entry of this scenario, in both tiers."""
        self.memory.clear()
        self._pending.clear()
        if self._conn is None or self.read_only:
            return
        try:
            self._conn.execute(
                "DELETE FROM results WHERE scenario = ?", (self.scenario,)
            )
            self._dirty = True
        except sqlite3.Error as exc:
            self._degrade(f"{type(exc).__name__}: {exc}")

    def commit(self) -> None:
        """Flush buffered rows in one ``executemany`` batch.

        The engine calls this at the end of every public evaluation
        API -- the store commit boundary -- so readers (shards, other
        runs) only ever observe batch-consistent state.  A read-only
        view keeps its buffer: it is drained explicitly
        (:meth:`drain_rows`) at the shard's report.
        """
        if self.read_only:
            return
        if self._conn is None:
            self._pending.clear()
            return
        if not self._pending and not self._dirty:
            return
        start = time.perf_counter_ns()
        try:
            if self._pending:
                scenario = self.scenario
                self._conn.executemany(
                    "INSERT OR REPLACE INTO results "
                    "(scenario, signature, payload) VALUES (?, ?, ?)",
                    [
                        (scenario, key, blob)
                        for key, blob in self._pending.items()
                    ],
                )
                self.writes += len(self._pending)
            self._conn.commit()
            self._pending.clear()
            self._dirty = False
        except sqlite3.Error as exc:
            self._pending.clear()
            self._degrade(f"{type(exc).__name__}: {exc}")
        finally:
            self.commit_ns += time.perf_counter_ns() - start

    def drain_rows(self) -> List[Tuple[bytes, bytes]]:
        """Hand over the buffered rows (and forget them).

        The shard side of the distributed race's single-writer rule:
        a read-only view accumulates its newly priced results here,
        and the parent ships them home with :meth:`absorb_rows`
        through its one read-write connection.  Rows are
        ``(signature, payload)`` pairs in first-write order; draining
        is destructive so repeated finals do not double-ship.  A
        read-write store has nothing buffered after a commit.
        """
        rows = list(self._pending.items())
        self._pending.clear()
        return rows

    def absorb_rows(self, rows: Iterable[Tuple[bytes, bytes]]) -> None:
        """Persist rows drained from a shard's read-only view.

        Only meaningful on the read-write store (the parent); encoded
        payloads are buffered as if priced locally and flushed in the
        next :meth:`commit` batch (``INSERT OR REPLACE``, so shards
        racing over overlapping designs stay idempotent).
        """
        if self.read_only:
            raise ValueError("absorb_rows requires the read-write store")
        for key, blob in rows:
            self._pending[key] = blob
            self._pending.move_to_end(key)
        self.commit()

    def close(self) -> None:
        """Flush and detach the database tier (idempotent)."""
        self.commit()
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def stats(self) -> StoreStats:
        return StoreStats(
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
            open_ns=self.open_ns,
            commit_ns=self.commit_ns,
        )

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(outcome: Optional[object]) -> bytes:
        if outcome is None:
            return b"I"
        if isinstance(outcome, EvaluatedDesign):
            from repro.serialize.store_key import metrics_record

            return b"E" + metrics_record(outcome.metrics)
        raise TypeError(
            "a result store row holds an EvaluatedDesign or None, not "
            f"{type(outcome).__name__}"
        )

    def _decode(
        self, blob: object, design: Optional["CandidateDesign"]
    ) -> Optional[EvaluatedDesign]:
        """The outcome one payload stores.

        Raises ``ValueError`` when the payload does not decode (the
        row is corrupt) and ``TypeError`` when a valid design's row
        cannot be served: without the caller's ``design``, or on a
        store opened without a compiled spec.
        """
        if blob == b"I":
            return None
        if not isinstance(blob, bytes):
            raise ValueError(f"payload of type {type(blob).__name__}")
        if blob[:1] != b"E":
            raise ValueError(
                f"undecodable payload: kind {blob[:1]!r}, {len(blob)} bytes"
            )
        from repro.serialize.store_key import record_metrics

        metrics = record_metrics(blob[1:])
        if design is None or self.compiled is None:
            raise TypeError(
                "a stored design's row is served as an outcome of the "
                "caller's design, re-derivable against the store's "
                "compiled spec; both are required"
            )
        return EvaluatedDesign(design, None, metrics, compiled=self.compiled)


def make_store(
    cache_store: str,
    cache_path: Optional[Union[str, Path]],
    compiled: Optional["CompiledSpec"],
    max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
    read_only: bool = False,
) -> "ResultStore":
    """Build the backend an :class:`~repro.engine.engine.EngineConfig`
    names (which validated the pair at construction).

    ``read_only`` builds the shard-engine view of a sqlite store: a
    read-only connection (never competing for the single rw lock) that
    buffers its new rows for the parent to drain and persist.  The
    memory backend has no file to protect and ignores the flag.
    """
    if cache_store == "sqlite":
        assert cache_path is not None, "EngineConfig requires a sqlite path"
        return SqliteResultStore(
            cache_path,
            compiled=compiled,
            max_entries=max_entries,
            read_only=read_only,
        )
    return MemoryResultStore(max_entries)


__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "SCHEMA_VERSION",
    "MemoryResultStore",
    "ResultStore",
    "SqliteResultStore",
    "StoreStats",
    "make_store",
]
