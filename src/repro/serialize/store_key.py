"""Canonical keys and records of the persistent result store.

The sqlite result store (:mod:`repro.engine.store`) persists evaluation
outcomes across processes and runs, keyed by *what was evaluated*:

* the candidate axis is
  :meth:`repro.engine.compiled_spec.CompiledSpec.signature` itself: a
  fixed-layout ``bytes`` key, bound directly as a ``BLOB``;
* :func:`spec_store_key` -- the problem axis.  Two
  :class:`~repro.core.strategy.DesignSpec` instances describe the same
  problem exactly when their serialized forms agree, so the key is a
  SHA-256 over the canonical JSON of the spec's serialized parts
  (application, architecture, future, base schedule, weights, horizon).
  Store rows from different scenarios can then share one database file
  without ever colliding.

A valid design's row stores its metrics as one fixed binary record
(:func:`metrics_record` / :func:`record_metrics`): the seven
:class:`~repro.core.metrics.DesignMetrics` fields in declaration order,
little-endian, floats as float64 and ``c2p``/``c2m`` as int64.  It
round-trips exactly, so a design priced from a store row is
byte-identical to one priced fresh.  Any change to this layout or to
the signature's must bump ``repro.engine.store.SCHEMA_VERSION``.

Keys and records are pure functions of their inputs -- no timestamps,
no environment -- which is what makes a warm store safe to share across
worker processes and restarts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from typing import TYPE_CHECKING

from repro.core.metrics import DesignMetrics
from repro.serialize.codec import (
    application_to_dict,
    architecture_to_dict,
    future_to_dict,
    schedule_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.strategy import DesignSpec

#: c1p, c1m, c2p, c2m, penalty_2p, penalty_2m, objective.
_METRICS = struct.Struct("<2d2q3d")

#: Byte length of one :func:`metrics_record`.
METRICS_RECORD_SIZE = _METRICS.size


def metrics_record(metrics: DesignMetrics) -> bytes:
    """The fixed binary record of one design's metrics."""
    return _METRICS.pack(
        metrics.c1p,
        metrics.c1m,
        metrics.c2p,
        metrics.c2m,
        metrics.penalty_2p,
        metrics.penalty_2m,
        metrics.objective,
    )


def record_metrics(record: bytes) -> DesignMetrics:
    """Rebuild design metrics from :func:`metrics_record`'s bytes.

    Raises
    ------
    ValueError
        If ``record`` is not exactly one record long.
    """
    if len(record) != METRICS_RECORD_SIZE:
        raise ValueError(
            f"metrics record of {len(record)} bytes, expected "
            f"{METRICS_RECORD_SIZE}"
        )
    return DesignMetrics(*_METRICS.unpack(record))


def spec_store_key(spec: "DesignSpec") -> str:
    """Scenario key of one design problem (SHA-256 hex digest)."""
    payload = {
        "application": application_to_dict(spec.current),
        "architecture": architecture_to_dict(spec.architecture),
        "future": future_to_dict(spec.future),
        "base_schedule": (
            None
            if spec.base_schedule is None
            else schedule_to_dict(spec.base_schedule)
        ),
        "weights": dataclasses.asdict(spec.weights),
        "horizon": spec.effective_horizon(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
