"""Shared experiment machinery.

:func:`run_comparison` executes the three strategies (AH, MH, SA) on
the same generated scenarios -- one scenario per (current-size, seed)
pair -- and returns per-run records that the figure harnesses aggregate
in their own ways (quality deviations, runtimes, future mappability).

:func:`run_family_matrix` is the diversity analogue: it sweeps the
scenario-family grid (every strategy x every registered family, seeded,
cache on and off) the way :func:`run_comparison` sweeps
``current_sizes``, and :func:`run_family_smoke` is the CI-facing subset
(smallest preset per family, with determinism and codec round-trip
checks).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import ObjectiveWeights
from repro.core.strategy import DesignResult, make_strategy
from repro.engine import EngineConfig
from repro.engine.cache import CacheStats
from repro.gen.scenario import Scenario, ScenarioParams, build_scenario
from repro.gen import families as families_module
from repro.search.budget import Budget
from repro.search.portfolio import PortfolioResult, PortfolioRunner
from repro.serialize.scenario_codec import scenario_from_dict, scenario_to_dict
from repro.utils.errors import ConfigError, MappingError


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale knobs shared by all experiment harnesses.

    The defaults run the full suite in minutes on a laptop; the
    ``paper_scale`` preset (see :meth:`paper`) restores the paper's
    workload sizes at the cost of hours of SA runtime.
    """

    current_sizes: Tuple[int, ...] = (10, 20, 30)
    n_existing: int = 60
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
    #: Portfolio members raced by the ``scenarios portfolio`` command
    #: (strategy names, racing order = tie-breaking order).
    portfolio: Tuple[str, ...] = ("MH", "SA")
    scenario_params: ScenarioParams = field(default_factory=ScenarioParams)
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
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
            current_sizes=(40, 80, 160, 240, 320),
            n_existing=400,
            seeds=tuple(range(1, 11)),
            sa_iterations=6000,
            scenario_params=ScenarioParams(n_nodes=10, hyperperiod=4800,
                                           slot_length=4, slot_capacity=16),
            n_future_processes=80,
            future_apps_per_scenario=20,
        )

    def scenario_for(self, size: int, seed: int) -> Scenario:
        """Build the scenario of one (current-size, seed) cell."""
        params = replace(
            self.scenario_params,
            n_existing=self.n_existing,
            n_current=size,
        )
        return build_scenario(params, seed=seed)

    def search_budget(self) -> Optional[Budget]:
        """The per-strategy budget these settings describe, if any."""
        return make_budget(
            self.budget_evaluations, self.budget_seconds, self.budget_patience
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


@dataclass
class ComparisonRecord:
    """All three strategies' results on one scenario."""

    size: int
    seed: int
    scenario: Scenario
    results: Dict[str, DesignResult]

    def objective(self, strategy: str) -> float:
        return self.results[strategy].objective

    def runtime(self, strategy: str) -> float:
        return self.results[strategy].runtime_seconds

    def all_valid(self) -> bool:
        return all(r.valid for r in self.results.values())

    def cache_line(self, strategy: str) -> str:
        """Human-readable engine statistics of one strategy's run."""
        r = self.results[strategy]
        return (
            f"{r.evaluations} evals, {r.cache_hits} hits, "
            f"{r.cache_misses} misses"
        )


def run_comparison(
    config: ExperimentConfig,
    strategies: Sequence[str] = ("AH", "MH", "SA"),
    verbose: bool = False,
) -> List[ComparisonRecord]:
    """Run every strategy on every (size, seed) scenario.

    Scenarios whose existing application cannot be scheduled are
    skipped (the generator retries internally first); scenarios where a
    strategy finds no valid design are kept -- their records report
    ``objective == inf`` and the aggregators decide how to treat them.
    """
    records: List[ComparisonRecord] = []
    for size in config.current_sizes:
        for seed in config.seeds:
            try:
                scenario = config.scenario_for(size, seed)
            except MappingError:
                if verbose:
                    print(f"size={size} seed={seed}: unschedulable, skipped")
                continue
            results: Dict[str, DesignResult] = {}
            for name in strategies:
                strategy = _build(name, config, seed)
                results[name] = strategy.design(scenario.spec(config.weights))
            record = ComparisonRecord(size, seed, scenario, results)
            records.append(record)
            if verbose:
                line = " ".join(
                    f"{n}={results[n].objective:.1f}" for n in strategies
                )
                cache = "; ".join(
                    f"{n}: {record.cache_line(n)}" for n in strategies
                )
                print(f"size={size} seed={seed}: {line} [{cache}]")
    return records


def _build(name: str, config: ExperimentConfig, seed: int):
    """Instantiate a strategy with experiment-appropriate parameters."""
    budget = config.search_budget()
    if name.upper() == "SA":
        return make_strategy(
            "SA",
            iterations=config.sa_iterations,
            seed=seed * 7919 + 13,
            engine=config.engine,
            budget=budget,
        )
    return make_strategy(name, engine=config.engine, budget=budget)


def cache_statistics(
    records: Sequence[ComparisonRecord],
    strategies: Optional[Sequence[str]] = None,
) -> List[Tuple[str, int, int, int, float]]:
    """Per-strategy evaluation-engine totals across all runs.

    Returns ``(strategy, evaluations, hits, misses, hit_rate)`` rows,
    aggregated over every record that ran the strategy -- the data of
    the CLI's engine-statistics report.  ``strategies`` defaults to the
    names actually present in ``records``, in first-seen order.
    """
    if strategies is None:
        seen: List[str] = []
        for record in records:
            for name in record.results:
                if name not in seen:
                    seen.append(name)
        strategies = seen
    rows: List[Tuple[str, int, int, int, float]] = []
    for name in strategies:
        results = [r.results[name] for r in records if name in r.results]
        evaluations = sum(r.evaluations for r in results)
        hits = sum(r.cache_hits for r in results)
        misses = sum(r.cache_misses for r in results)
        rate = CacheStats(hits, misses, 0).hit_rate
        rows.append((name, evaluations, hits, misses, rate))
    return rows


def stage_statistics(
    records: Sequence[ComparisonRecord],
    strategies: Optional[Sequence[str]] = None,
) -> List[Tuple[str, int, int, int]]:
    """Per-strategy evaluation-pipeline stage times across all runs.

    Returns ``(strategy, sched_ns, metrics_ns, decode_ns)`` rows, the
    Amdahl split of engine time between scheduling passes, metric
    pricing and object-schedule decode (lazy under the array core:
    only incumbents and reporting paths pay it).
    """
    if strategies is None:
        seen: List[str] = []
        for record in records:
            for name in record.results:
                if name not in seen:
                    seen.append(name)
        strategies = seen
    rows: List[Tuple[str, int, int, int]] = []
    for name in strategies:
        results = [r.results[name] for r in records if name in r.results]
        rows.append(
            (
                name,
                sum(r.sched_ns for r in results),
                sum(r.metrics_ns for r in results),
                sum(r.decode_ns for r in results),
            )
        )
    return rows


def store_statistics(
    records: Sequence[ComparisonRecord],
    strategies: Optional[Sequence[str]] = None,
) -> List[Tuple[str, int, int, int, float]]:
    """Per-strategy persistent-store totals across all runs.

    Returns ``(strategy, store_hits, store_misses, store_writes,
    hit_rate)`` rows, the result-store counterpart of
    :func:`cache_statistics`; all zeros for a strategy when the runs
    used the in-memory backend.
    """
    if strategies is None:
        seen: List[str] = []
        for record in records:
            for name in record.results:
                if name not in seen:
                    seen.append(name)
        strategies = seen
    rows: List[Tuple[str, int, int, int, float]] = []
    for name in strategies:
        results = [r.results[name] for r in records if name in r.results]
        hits = sum(r.store_hits for r in results)
        misses = sum(r.store_misses for r in results)
        writes = sum(r.store_writes for r in results)
        probes = hits + misses
        rate = hits / probes if probes else 0.0
        rows.append((name, hits, misses, writes, rate))
    return rows


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

    @property
    def store_hit_rate(self) -> float:
        probes = self.store_hits + self.store_misses
        return self.store_hits / probes if probes else 0.0


def design_identity(result: DesignResult):
    """Canonical identity of a design (see
    :meth:`DesignResult.design_identity`, the single definition)."""
    return result.design_identity()


def design_fingerprint(result: DesignResult) -> str:
    """Short stable digest of the canonical design identity.

    A sha256 prefix over ``repr(design_identity())`` -- compact enough
    to print per run, and equal exactly when the designs are
    byte-identical.  The CI warm-restart gate compares these across
    cold and warm store runs.
    """
    import hashlib

    identity = repr(design_identity(result)).encode("utf-8")
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
    accounting.  A negative shard count, or a wall-clock
    ``shared_budget`` with shards, raises
    :class:`~repro.utils.errors.ConfigError`.
    """
    members = portfolio_members(strategies, seed, sa_iterations, member_budget)
    return PortfolioRunner(
        members, budget=shared_budget, engine=engine, shards=shards
    ).run(spec)


def run_family_matrix(
    family_names: Optional[Sequence[str]] = None,
    preset: Optional[str] = None,
    seeds: Sequence[int] = (1,),
    strategies: Sequence[str] = ("AH", "MH", "SA"),
    cache_modes: Sequence[bool] = (True, False),
    sa_iterations: int = DEFAULT_FAMILY_SA_ITERATIONS,
    engine: EngineConfig = EngineConfig(),
    budget: Optional[Budget] = None,
    verbose: bool = False,
) -> List[FamilyMatrixRecord]:
    """The stress matrix: every strategy x every family, cache on/off.

    Parameters
    ----------
    family_names:
        Families to sweep; defaults to every registered family.
    preset:
        Preset name to use for each family; ``None`` uses each
        family's smallest preset (presets are per-family, so a shared
        name must exist in all swept families).
    seeds:
        Scenario seeds; each (family, seed) cell is generated once and
        shared by all strategy/cache runs.
    strategies, cache_modes, sa_iterations:
        The strategy grid.  Results are deterministic for any cache
        mode by the evaluation-engine contract.
    engine:
        Engine settings of every cell; each cache mode overrides its
        ``use_cache``.
    """
    if family_names is None:
        family_names = families_module.family_names()
    records: List[FamilyMatrixRecord] = []
    for name in family_names:
        family = families_module.get_family(name)
        preset_name = preset if preset is not None else family.smallest_preset
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
            smoke.store_hits += baseline.store_hits
            smoke.store_misses += baseline.store_misses
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
            if design_identity(uncached) != design_identity(baseline):
                smoke.failures.append(
                    f"{strategy_name}: design differs with cache off"
                )
        smoke.runtime_seconds = time.perf_counter() - started
        if verbose:
            status = "ok" if smoke.ok else "; ".join(smoke.failures)
            print(f"family={name} preset={preset_name}: {status}")
        out.append(smoke)
    return out
