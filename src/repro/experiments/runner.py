"""Shared experiment machinery: one matrix runner for every experiment.

:func:`run_family_matrix` runs strategies on scenario-family cells
(family x preset x seed, cache on and off) and returns one
:class:`FamilyMatrixRecord` per run.  The stress sweep reads the
records as they are; the paper's three figures fold them per preset
(quality deviations, runtimes, future mappability) after
:meth:`ExperimentConfig.run_matrix` has run the figures' cells, which
are ``uniform-baseline`` presets (``fig-*`` at laptop scale,
``paper-*`` at the paper's).  :func:`run_family_smoke` is the
CI-facing subset (smallest preset per family, with determinism and
codec round-trip checks).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.strategy import DesignResult, make_strategy
from repro.engine import EngineConfig, EngineCounters
from repro.gen.scenario import Scenario
from repro.gen import families as families_module
from repro.gen.families.builtin import FIG_PRESETS, PAPER_PRESETS
from repro.search.budget import Budget
from repro.search.portfolio import PortfolioResult, PortfolioRunner
from repro.serialize.scenario_codec import scenario_from_dict, scenario_to_dict
from repro.utils.errors import ConfigError, MappingError

#: The family whose presets hold the figures' cells: the paper's
#: scenario shape.
FIGURE_FAMILY = "uniform-baseline"


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale knobs shared by all experiment harnesses.

    The defaults run the full suite in minutes on a laptop; the
    ``paper_scale`` preset (see :meth:`paper`) restores the paper's
    workload sizes, and ``all`` then takes about three minutes (2 min
    43 s wall, 2 min 41 s user, on a 2-core box).
    """

    #: ``uniform-baseline`` presets, one figure row each.
    presets: Tuple[str, ...] = FIG_PRESETS
    seeds: Tuple[int, ...] = (1, 2, 3)
    sa_iterations: int = 1200
    #: Settings of every strategy's evaluation engine (the CLI's
    #: ``--cache-store`` / ``--cache-path``).  Results are
    #: byte-identical under every setting.
    engine: EngineConfig = EngineConfig()
    #: Per-strategy search budget (``None`` on every axis = the
    #: strategies' own caps only).  Evaluation/step/patience budgets
    #: cut seeded runs at exact reproducible points; wall-clock budgets
    #: are machine-dependent.
    budget_evaluations: Optional[int] = None
    budget_seconds: Optional[float] = None
    budget_patience: Optional[int] = None
    # fig-future only.  ``n_future_processes=None`` sizes each future
    # application from the scenario's characterized t_need (a typical
    # family member claiming ``future_demand_fraction * t_need``); the
    # paper preset pins it to 80 processes instead.
    n_future_processes: Optional[int] = None
    future_apps_per_scenario: int = 10
    future_demand_fraction: float = 0.4

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper's scale: existing 400, current 40-320, future 80."""
        return cls(
            presets=PAPER_PRESETS,
            seeds=tuple(range(1, 11)),
            sa_iterations=6000,
            n_future_processes=80,
            future_apps_per_scenario=20,
        )

    def search_budget(self) -> Optional[Budget]:
        """The per-strategy budget these settings describe, if any."""
        return make_budget(
            self.budget_evaluations, self.budget_seconds, self.budget_patience
        )

    def run_matrix(
        self,
        strategies: Sequence[str] = ("AH", "MH", "SA"),
        verbose: bool = False,
    ) -> List[FamilyMatrixRecord]:
        """Run ``strategies`` on the figures' cells: every preset x seed
        of :data:`FIGURE_FAMILY`, in this config's engine cache mode."""
        return run_family_matrix(
            family_names=(FIGURE_FAMILY,),
            presets=self.presets,
            seeds=self.seeds,
            strategies=strategies,
            cache_modes=(self.engine.use_cache,),
            sa_iterations=self.sa_iterations,
            engine=self.engine,
            budget=self.search_budget(),
            verbose=verbose,
        )


def make_budget(
    evaluations: Optional[int] = None,
    seconds: Optional[float] = None,
    patience: Optional[int] = None,
) -> Optional[Budget]:
    """A :class:`Budget` from optional CLI-style knobs (``None`` = none)."""
    if evaluations is None and seconds is None and patience is None:
        return None
    return Budget(
        max_evaluations=evaluations, max_seconds=seconds, patience=patience
    )


def engine_statistics(
    records: Sequence[FamilyMatrixRecord],
) -> Dict[str, EngineCounters]:
    """Per-strategy sums of the runs' :class:`EngineCounters`.

    Keys are the strategies in first-seen order -- the data of the
    CLI's engine-statistics table.
    """
    totals: Dict[str, EngineCounters] = {}
    for record in records:
        total = totals.get(record.strategy, EngineCounters(0, 0, 0))
        totals[record.strategy] = total + record.result.counters
    return totals


def cells_of(
    records: Sequence[FamilyMatrixRecord], preset: str
) -> List[Dict[str, FamilyMatrixRecord]]:
    """The seed cells of one preset, in run order: each maps strategy
    name to its record (the figures run one cache mode)."""
    cells: Dict[int, Dict[str, FamilyMatrixRecord]] = {}
    for record in records:
        if record.preset == preset:
            cells.setdefault(record.seed, {})[record.strategy] = record
    return list(cells.values())


def preset_size(preset: str) -> int:
    """The current-application size of a figure preset (a row's x)."""
    return families_module.get_family(FIGURE_FAMILY).params(preset).n_current


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    vals = list(values)
    if not vals:
        return 0.0
    return sum(vals) / len(vals)


# ----------------------------------------------------------------------
# scenario-family stress matrix
# ----------------------------------------------------------------------
#: SA iteration budget for family sweeps; small by design -- the matrix
#: is about breadth (every family x strategy x cache mode), not about
#: squeezing the reference to its optimum.
DEFAULT_FAMILY_SA_ITERATIONS = 150


@dataclass
class FamilyMatrixRecord:
    """One strategy run on one family scenario in one cache mode."""

    family: str
    preset: str
    seed: int
    strategy: str
    use_cache: bool
    result: DesignResult
    #: The cell's scenario, shared by every run on the cell.
    scenario: Scenario


@dataclass
class FamilySmokeResult:
    """Outcome of the CI smoke checks for one family.

    ``failures`` is empty when the family passed: the scenario
    round-trips through the JSON codec byte-identically, and every
    strategy finds a valid design that is identical with the cache on
    and off.
    """

    family: str
    preset: str
    seed: int
    failures: List[str] = field(default_factory=list)
    objectives: Dict[str, float] = field(default_factory=dict)
    #: Per-strategy canonical design fingerprint (sha256 prefix of the
    #: baseline run's :meth:`DesignResult.design_identity`); the value
    #: the CI warm-restart gate compares across runs.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: Persistent-store totals over the baseline runs (zero on the
    #: memory backend).
    store_hits: int = 0
    store_misses: int = 0
    runtime_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def design_fingerprint(result: DesignResult) -> str:
    """Short stable digest of the canonical design identity.

    A sha256 prefix over ``repr(design_identity())`` -- compact enough
    to print per run, and equal exactly when the designs are
    byte-identical.  The CI warm-restart gate compares these across
    cold and warm store runs.
    """
    import hashlib

    identity = repr(result.design_identity()).encode("utf-8")
    return hashlib.sha256(identity).hexdigest()[:16]


def parse_strategy_name(name: str) -> Tuple[str, int]:
    """Split a strategy name into its base acronym and ``SA@k`` variant.

    ``AH``, ``MH`` and ``SA`` (any case) are variant 0; ``SA@k`` with
    an integer ``k >= 1`` is SA variant ``k``.  Anything else raises
    :class:`~repro.utils.errors.ConfigError` naming the bad value.
    """
    base, _, suffix = name.partition("@")
    if base.upper() not in ("AH", "MH", "SA"):
        raise ConfigError(
            f"unknown strategy {name!r}; choose from AH, MH, SA or SA@k"
        )
    if not suffix:
        return base, 0
    if base.upper() != "SA" or not suffix.isdigit() or int(suffix) < 1:
        raise ConfigError(f"only SA@k (k >= 1) variants exist, got {name!r}")
    return base, int(suffix)


def family_strategy(
    name: str,
    seed: int,
    sa_iterations: int = DEFAULT_FAMILY_SA_ITERATIONS,
    budget: Optional[Budget] = None,
    engine: EngineConfig = EngineConfig(),
):
    """Instantiate a strategy for a family run (shared with the CLI).

    ``SA@k`` (k >= 1) names a portfolio variant of SA: the same
    configuration on a distinct seeded RNG stream (seed offset
    ``k * 101``), so portfolio races can field several independent
    SA members.  Only SA has variants -- the other strategies are
    deterministic, so extra copies would race identical walks.
    """
    base, variant = parse_strategy_name(name)
    if base.upper() == "SA":
        strategy = make_strategy(
            "SA",
            iterations=sa_iterations,
            seed=seed * 7919 + 13 + variant * 101,
            engine=engine,
            budget=budget,
        )
        if variant:
            strategy.name = f"SA@{variant}"
        return strategy
    return make_strategy(name, engine=engine, budget=budget)


def strategy_for_family(
    name: str,
    seed: int,
    use_cache: bool,
    jobs: int,
    sa_iterations: int,
    budget: Optional[Budget] = None,
    cache_store: str = "memory",
    cache_path: Optional[str] = None,
):
    """:func:`family_strategy` with the engine values spelled out.

    The call surface of scripts and of the benchmark of record, which
    pass ``(name, seed, use_cache, jobs, sa_iterations)`` by position
    and the store by keyword; the three engine values become one
    :class:`EngineConfig` here.  ``jobs`` must be 1: every engine
    evaluates in-process (the one process-level mechanism is the
    sharded race, see :func:`run_portfolio`).
    """
    if jobs != 1:
        raise ConfigError(
            f"jobs must be 1 (candidates are evaluated in-process; race "
            f"shards for parallelism), got {jobs!r}"
        )
    engine = EngineConfig(use_cache, cache_store, cache_path)
    return family_strategy(name, seed, sa_iterations, budget, engine)


def portfolio_members(
    strategies: Sequence[str],
    seed: int,
    sa_iterations: int = DEFAULT_FAMILY_SA_ITERATIONS,
    budget: Optional[Budget] = None,
) -> List:
    """Configured strategy instances for a portfolio race.

    Members are built exactly like single-strategy family runs (same
    SA seed derivation), so a portfolio member's trajectory matches
    the corresponding solo run; ``budget`` here is each member's *own*
    budget (the racing budget lives on the runner, and so does the
    engine the members share).
    """
    return [
        family_strategy(name, seed, sa_iterations, budget)
        for name in strategies
    ]


def run_portfolio(
    spec,
    strategies: Sequence[str],
    seed: int = 1,
    sa_iterations: int = DEFAULT_FAMILY_SA_ITERATIONS,
    member_budget: Optional[Budget] = None,
    shared_budget: Optional[Budget] = None,
    engine: EngineConfig = EngineConfig(),
    shards: int = 0,
) -> PortfolioResult:
    """Race ``strategies`` on ``spec`` for one shared budget.

    The deterministic lockstep race of
    :class:`repro.search.PortfolioRunner`: member order is the racing
    and tie-breaking order, ``shared_budget`` is contended for by all
    members, and the winner is byte-identical for any ``engine``
    setting.  With a sqlite store the race shares one persistent store
    (and is served warm by earlier races against it).

    ``shards=0`` (the default) races in-process over one shared
    engine; ``shards >= 1`` forks that many worker processes, each
    racing its share of the members, with the same designs and
    accounting.  A negative shard count, more shards than members, or
    a wall-clock ``shared_budget`` with shards, raises
    :class:`~repro.utils.errors.ConfigError`.
    """
    members = portfolio_members(strategies, seed, sa_iterations, member_budget)
    return PortfolioRunner(
        members, budget=shared_budget, engine=engine, shards=shards
    ).run(spec)


def run_family_matrix(
    family_names: Optional[Sequence[str]] = None,
    presets: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (1,),
    strategies: Sequence[str] = ("AH", "MH", "SA"),
    cache_modes: Sequence[bool] = (True, False),
    sa_iterations: int = DEFAULT_FAMILY_SA_ITERATIONS,
    engine: EngineConfig = EngineConfig(),
    budget: Optional[Budget] = None,
    verbose: bool = False,
) -> List[FamilyMatrixRecord]:
    """The one experiment matrix: strategies x family cells, cache on/off.

    Parameters
    ----------
    family_names:
        Families to sweep; defaults to every registered family.
    presets:
        Preset names to run in each family; ``None`` uses each
        family's smallest preset (presets are per-family, so a shared
        name must exist in all swept families).  Every family x preset
        is resolved before any cell runs, so a missing one raises
        :class:`~repro.utils.errors.InvalidModelError` up front.
    seeds:
        Scenario seeds; each (family, preset, seed) cell is generated
        once and shared by all strategy/cache runs.
    strategies, cache_modes, sa_iterations:
        The strategy grid.  Results are deterministic for any cache
        mode by the evaluation-engine contract.
    engine:
        Engine settings of every cell; each cache mode overrides its
        ``use_cache``.
    """
    if family_names is None:
        family_names = families_module.family_names()
    grid = []
    for name in family_names:
        family = families_module.get_family(name)
        for preset_name in (
            (family.smallest_preset,) if presets is None else presets
        ):
            family.params(preset_name)  # an unknown preset raises here
            grid.append((family, preset_name))
    records: List[FamilyMatrixRecord] = []
    for family, preset_name in grid:
        name = family.name
        for seed in seeds:
            try:
                scenario = family.build(preset_name, seed=seed)
            except MappingError:
                if verbose:
                    print(
                        f"family={name} preset={preset_name} seed={seed}: "
                        f"unschedulable, skipped"
                    )
                continue
            spec = scenario.spec()
            for strategy_name in strategies:
                for use_cache in cache_modes:
                    strategy = family_strategy(
                        strategy_name,
                        seed,
                        sa_iterations,
                        budget,
                        replace(engine, use_cache=use_cache),
                    )
                    result = strategy.design(spec)
                    records.append(
                        FamilyMatrixRecord(
                            family=name,
                            preset=preset_name,
                            seed=seed,
                            strategy=strategy_name,
                            use_cache=use_cache,
                            result=result,
                            scenario=scenario,
                        )
                    )
                    if verbose:
                        print(
                            f"family={name} preset={preset_name} "
                            f"seed={seed} {strategy_name} "
                            f"cache={'on' if use_cache else 'off'}: "
                            f"objective={result.objective:.1f}"
                        )
    return records


def run_family_smoke(
    family_names: Optional[Sequence[str]] = None,
    seed: int = 1,
    strategies: Sequence[str] = ("AH", "MH", "SA"),
    sa_iterations: int = DEFAULT_FAMILY_SA_ITERATIONS,
    engine: EngineConfig = EngineConfig(),
    verbose: bool = False,
) -> List[FamilySmokeResult]:
    """CI smoke sweep: smallest preset per family, all checks.

    Per family: (1) the scenario round-trips through the JSON codec
    byte-identically; (2) every strategy finds a *valid* design;
    (3) each strategy's design is identical with the cache on and off
    -- the determinism contract new families must not break.  (The
    same designs under the pinned object scheduler core are checked by
    the tier-1 oracle test, ``tests/test_object_oracle.py``.)

    ``engine`` applies to the *baseline* run of each strategy only
    (the cache-off variant has no store: it exists to check
    determinism, and routing it through the same database would let
    the store serve results between variants).  Each smoke result
    reports the baseline designs' fingerprints and the store totals,
    so a second sweep against the same sqlite path can assert warm-hit
    rate and byte-identical designs (the CI warm-restart gate).
    """
    if family_names is None:
        family_names = families_module.family_names()
    out: List[FamilySmokeResult] = []
    for name in family_names:
        family = families_module.get_family(name)
        preset_name = family.smallest_preset
        started = time.perf_counter()
        smoke = FamilySmokeResult(family=name, preset=preset_name, seed=seed)
        try:
            scenario = family.build(preset_name, seed=seed)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            smoke.failures.append(f"build failed: {exc}")
            smoke.runtime_seconds = time.perf_counter() - started
            out.append(smoke)
            continue

        # Codec round trip must be byte-identical.
        first = json.dumps(scenario_to_dict(scenario), sort_keys=True)
        rebuilt = scenario_from_dict(json.loads(first))
        second = json.dumps(scenario_to_dict(rebuilt), sort_keys=True)
        if first != second:
            smoke.failures.append("JSON round trip is not byte-identical")

        spec = scenario.spec()
        for strategy_name in strategies:
            baseline = family_strategy(
                strategy_name, seed, sa_iterations, engine=engine
            ).design(spec)
            smoke.store_hits += baseline.counters.store_hits
            smoke.store_misses += baseline.counters.store_misses
            if not baseline.valid:
                smoke.failures.append(f"{strategy_name}: no valid design")
                continue
            smoke.objectives[strategy_name] = baseline.objective
            smoke.fingerprints[strategy_name] = design_fingerprint(baseline)
            uncached = family_strategy(
                strategy_name,
                seed,
                sa_iterations,
                engine=EngineConfig(use_cache=False),
            ).design(spec)
            if uncached.design_identity() != baseline.design_identity():
                smoke.failures.append(
                    f"{strategy_name}: design differs with cache off"
                )
        smoke.runtime_seconds = time.perf_counter() - started
        if verbose:
            status = "ok" if smoke.ok else "; ".join(smoke.failures)
            print(f"family={name} preset={preset_name}: {status}")
        out.append(smoke)
    return out
