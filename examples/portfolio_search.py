#!/usr/bin/env python3
"""Budgeted, resumable portfolio search over one shared engine.

Three acts on a medium-preset scenario family:

1. **Racing.**  MH and SA race over one shared evaluation engine in
   deterministic lockstep, contending for a shared evaluation budget;
   the best incumbent any member finds wins, with member order only
   breaking exact ties.
2. **Budget racing.**  The same race under a tight shared budget: the
   cheap member finishes naturally, the expensive one is cut mid-walk
   ("shared-budget") yet still reports a complete design.
3. **Checkpoint + resume.**  A Metropolis walk is cut by a small step
   budget, serialized to JSON, and resumed -- landing byte-identically
   on the design of an uninterrupted run.

Run:  python examples/portfolio_search.py
"""

import numpy as np

from repro.core.initial_mapping import InitialMapper
from repro.core.transformations import CandidateDesign
from repro.engine import EvaluationEngine
from repro.experiments.runner import run_portfolio
from repro.gen import families
from repro.search import (
    Budget,
    MetropolisAcceptor,
    RandomMoveProposer,
    SearchCheckpoint,
    SearchLoop,
)

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

    print("\nAct 3 -- cut a Metropolis walk, ship it as JSON, resume it:")

    def walk(max_steps):
        """A fresh, identically seeded walk bounded at ``max_steps``."""
        return SearchLoop(
            RandomMoveProposer(),
            MetropolisAcceptor(temperature=5.0, cooling=0.995),
            Budget(max_steps=max_steps),
            name="walk",
        )

    with EvaluationEngine(spec) as engine:
        mapper = InitialMapper(spec.architecture)
        mapping, _ = mapper.try_map_and_schedule(
            spec.current,
            base=spec.base_schedule,
            compiled=engine.compiled,
        )
        start = engine.evaluate(
            CandidateDesign(mapping, dict(engine.compiled.default_priorities))
        )

        straight = walk(200).run(
            spec, engine, start=start, rng=np.random.default_rng(7)
        )
        cut = walk(80).run(
            spec, engine, start=start, rng=np.random.default_rng(7)
        )
        wire = cut.checkpoint.to_json()
        print(
            f"  cut at step {cut.checkpoint.steps} "
            f"(incumbent {cut.incumbent.objective:.2f}); "
            f"checkpoint is {len(wire)} bytes of JSON"
        )
        resumed = walk(200).resume(
            spec, engine, SearchCheckpoint.from_json(wire)
        )
        print(
            f"  resumed to step {resumed.stats.steps}: "
            f"incumbent {resumed.incumbent.objective:.2f} vs "
            f"uninterrupted {straight.incumbent.objective:.2f}"
        )
        same = (
            resumed.incumbent.mapping.as_dict()
            == straight.incumbent.mapping.as_dict()
            and resumed.incumbent.priorities == straight.incumbent.priorities
        )
        print(f"  cut+resume == uninterrupted: {same}")


if __name__ == "__main__":
    main()
