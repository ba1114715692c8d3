"""Shard-scaling benchmark for the sharded portfolio race.

The sharding claim under test: racing the portfolio across N worker
processes divides the race's critical path by (roughly) the
members-per-shard ratio, while the winner stays byte-identical to the
in-process lockstep race.

One four-member portfolio (four independently-seeded SA variants) is
raced four ways on the same scenario cell as ``bench_search``:
in-process (``shards=0``), then sharded over 1, 2 and 4 worker
processes.  Two speedup bases are recorded:

* ``measured_speedup`` -- lockstep wall-clock over sharded wall-clock.
  Only meaningful on multi-core machines; on a single-core container
  the shards timeshare one CPU and the ratio hovers around 1.0, so its
  floor (>= 1.5x at 2 shards) is asserted only when ``os.cpu_count()``
  reports at least 2 cores.
* ``critical_path_speedup`` -- lockstep wall-clock over the busiest
  shard's CPU time (``time.process_time`` accounted inside each
  worker).  This is the wall-clock the fleet would achieve with one
  core per shard, it is core-count independent, and its floor
  (>= 2.5x at 4 shards) is asserted always.

Every run writes ``BENCH_portfolio.json`` at the repository root --
winner identity, objective, evaluation counts, both speedup bases and
the core count -- so the scaling trajectory stays diffable across PRs.
The file is written on plain smoke runs too (``--benchmark-disable``
or a bare ``pytest benchmarks/bench_portfolio.py``): the timing here
is manual, not pytest-benchmark's.

Run:  pytest benchmarks/bench_portfolio.py -q
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.runner import run_portfolio
from repro.gen import families

BENCH_FAMILY = "uniform-baseline"
BENCH_PRESET = "medium"
BENCH_SEED = 1

#: SA iteration budget per variant.  Long enough that the four walks
#: diverge: early on the variants overlap heavily and lockstep serves
#: much of the race from cross-member cache hits, which a solo shard
#: must recompute -- the scaling headroom grows with walk length.
BENCH_SA_ITERATIONS = 1000

#: The racing portfolio, in racing order: four independently-seeded SA
#: streams (seed offset k * 101 per variant), deliberately
#: equal-weight so the 4-shard split is one member per shard.
MEMBERS = ("SA", "SA@2", "SA@3", "SA@4")

SHARD_COUNTS = (1, 2, 4)

#: Floors enforced by the smoke assertions.
MEASURED_FLOOR_AT_2 = 1.5
CRITICAL_PATH_FLOOR_AT_4 = 2.5

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_portfolio.json"


@pytest.fixture(scope="module")
def search_spec():
    family = families.get_family(BENCH_FAMILY)
    return family.build(BENCH_PRESET, seed=BENCH_SEED).spec()


def timed_race(spec, shards: int = 0, repeats: int = 2):
    """Best-of-``repeats`` timing (single-core containers are noisy).

    Sharded runs are ranked by their critical path (the busiest
    shard's CPU time -- the asserted basis); lockstep by wall-clock.
    """
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_portfolio(
            spec,
            MEMBERS,
            seed=BENCH_SEED,
            sa_iterations=BENCH_SA_ITERATIONS,
            shards=shards,
        )
        wall = time.perf_counter() - start
        busy = result.shard_busy_seconds
        key = max(busy) if busy else wall
        if best is None or key < best[0]:
            best = (key, result, wall)
    return best[1], best[2]


def outcome_row(result, wall: float, lockstep_wall: float) -> dict:
    row = {
        "wall_seconds": round(wall, 4),
        "measured_speedup": round(lockstep_wall / wall, 3),
        "winner": result.winner.name if result.winner else None,
        "objective": result.objective,
        "evaluations": result.evaluations,
        "members": [
            [m.name, m.evaluations_served] for m in result.members
        ],
    }
    busy = result.shard_busy_seconds
    if busy:
        critical = max(busy)
        row["critical_path_seconds"] = round(critical, 4)
        row["critical_path_speedup"] = (
            round(lockstep_wall / critical, 3) if critical > 0 else None
        )
        row["shard_busy_seconds"] = [round(b, 4) for b in busy]
        row["respawns"] = result.respawns
    return row


@pytest.fixture(scope="module")
def fleet(search_spec):
    """Run the whole matrix once; every test asserts against it."""
    lockstep, lockstep_wall = timed_race(search_spec)
    rows = {"lockstep": outcome_row(lockstep, lockstep_wall, lockstep_wall)}
    for shards in SHARD_COUNTS:
        result, wall = timed_race(search_spec, shards=shards)
        rows[f"shards={shards}"] = outcome_row(result, wall, lockstep_wall)

    payload = {
        "cores": os.cpu_count(),
        "family": BENCH_FAMILY,
        "preset": BENCH_PRESET,
        "seed": BENCH_SEED,
        "sa_iterations": BENCH_SA_ITERATIONS,
        "members": list(MEMBERS),
        "floors": {
            "measured_at_2_shards": MEASURED_FLOOR_AT_2,
            "critical_path_at_4_shards": CRITICAL_PATH_FLOOR_AT_4,
        },
        "results": rows,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def test_sharded_winner_matches_lockstep(fleet):
    """A free race is byte-identical for any shard count."""
    reference = fleet["results"]["lockstep"]
    for shards in SHARD_COUNTS:
        row = fleet["results"][f"shards={shards}"]
        assert row["winner"] == reference["winner"]
        assert row["objective"] == reference["objective"]
        assert row["members"] == reference["members"]


def test_critical_path_speedup_floor(fleet):
    """>= 2.5x at 4 shards on the per-core basis, any machine."""
    row = fleet["results"]["shards=4"]
    assert row["critical_path_speedup"] is not None
    assert row["critical_path_speedup"] >= CRITICAL_PATH_FLOOR_AT_4


def test_measured_speedup_floor(fleet):
    """>= 1.5x wall-clock at 2 shards -- needs real cores to show."""
    cores = fleet["cores"] or 1
    if cores < 2:
        pytest.skip(f"single-core machine (cores={cores}); wall-clock "
                    "speedup needs parallel hardware")
    row = fleet["results"]["shards=2"]
    assert row["measured_speedup"] >= MEASURED_FLOOR_AT_2
