#!/usr/bin/env python3
"""Budgeted portfolio search over one shared engine, replayed from disk.

Three acts on a medium-preset scenario family:

1. **Racing.**  MH and SA race over one shared evaluation engine in
   deterministic lockstep, contending for a shared evaluation budget;
   the best incumbent any member finds wins, with member order only
   breaking exact ties.
2. **Budget racing.**  The same race under a tight shared budget: the
   cheap member finishes naturally, the expensive one is cut mid-walk
   ("shared-budget") yet still reports a complete design.
3. **Replay.**  SA runs from its seed against a fresh sqlite result
   store, then reruns from the same seed against the same file: the
   warm rerun is served from disk and lands byte-identically on the
   cold run's design.  A search is rerun, never resumed.

Run:  python examples/portfolio_search.py
"""

import tempfile
from pathlib import Path

from repro.engine import EngineConfig
from repro.experiments.runner import family_strategy, run_portfolio
from repro.gen import families
from repro.search import Budget

FAMILY = "uniform-baseline"
PRESET = "medium"
SEED = 1
SA_ITERATIONS = 300


def show_race(result) -> None:
    for member in result.members:
        search = member.result.search
        stop = search.stop_reason if search is not None else "-"
        marker = "  <-- winner" if result.winner is member else ""
        print(
            f"  {member.name:>3}: objective {member.result.objective:8.2f}  "
            f"({member.evaluations_served} evaluations, stop: {stop})"
            f"{marker}"
        )
    totals = result.counters
    print(
        f"  engine: {totals.evaluations} evaluations, "
        f"{totals.cache_hits} cache hits "
        f"(members hit each other's entries)"
    )


def main() -> None:
    family = families.get_family(FAMILY)
    scenario = family.build(PRESET, seed=SEED)
    spec = scenario.spec()
    print(
        f"scenario: family {FAMILY}, preset {PRESET} "
        f"({scenario.current.process_count} current processes)\n"
    )

    print("Act 1 -- the full race (every member to completion):")
    full = run_portfolio(
        spec, ("MH", "SA"), seed=SEED, sa_iterations=SA_ITERATIONS
    )
    show_race(full)

    print("\nAct 2 -- racing for a shared budget of 600 evaluations:")
    budgeted = run_portfolio(
        spec,
        ("MH", "SA"),
        seed=SEED,
        sa_iterations=SA_ITERATIONS,
        shared_budget=Budget(max_evaluations=600),
    )
    show_race(budgeted)

    print("\nAct 3 -- SA from its seed, then rerun against a warm store:")
    with tempfile.TemporaryDirectory() as scratch:
        store = EngineConfig(
            cache_store="sqlite", cache_path=str(Path(scratch) / "sa.sqlite")
        )
        cold = family_strategy(
            "SA", SEED, SA_ITERATIONS, engine=store
        ).design(spec)
        warm = family_strategy(
            "SA", SEED, SA_ITERATIONS, engine=store
        ).design(spec)
    probes = warm.store_hits + warm.store_misses
    print(
        f"  cold: {cold.store_writes} rows written; "
        f"warm: {warm.store_hits} of {probes} store probes served from disk"
    )
    same = warm.design_identity() == cold.design_identity()
    print(f"  warm rerun == cold run: {same}")


if __name__ == "__main__":
    main()
