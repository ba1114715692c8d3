"""Command-line entry point for the experiment harnesses.

Usage::

    python -m repro.experiments fig-quality
    python -m repro.experiments fig-runtime --sizes 10 20 --seeds 2
    python -m repro.experiments fig-future --paper-scale
    python -m repro.experiments all
    python -m repro.experiments scenarios list
    python -m repro.experiments scenarios describe hetero-speed
    python -m repro.experiments scenarios run pipeline --preset tiny --seed 3
    python -m repro.experiments scenarios portfolio uniform-baseline \
        --strategies MH SA --budget-evals 4000
    python -m repro.experiments scenarios sweep --seeds 2
    python -m repro.experiments scenarios smoke

``fig-quality`` and ``fig-runtime`` share their strategy runs when
invoked through ``all``, so the comparison is executed once.  The
``scenarios`` subcommand exposes the scenario-diversity subsystem: the
family registry (``list``/``describe``), single-family runs (``run``),
portfolio races over one shared engine (``portfolio``), the full
family x strategy stress matrix (``sweep``) and the CI determinism
checks (``smoke``).  ``--budget-evals``/``--budget-seconds``/
``--patience`` bound any search through the kernel's composable
budgets.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.experiments.fig_future import fig_future, render as render_future
from repro.experiments.fig_quality import fig_quality, render as render_quality
from repro.experiments.fig_runtime import fig_runtime, render as render_runtime
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    DEFAULT_FAMILY_SA_ITERATIONS,
    ExperimentConfig,
    cache_statistics,
    stage_statistics,
    store_statistics,
    design_identity,
    family_strategy,
    make_budget,
    parse_strategy_name,
    run_comparison,
    run_family_matrix,
    run_family_smoke,
    run_portfolio,
)
from repro.engine import EngineConfig
from repro.gen import families
from repro.utils.errors import ConfigError, ReproError


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    """The engine settings of a run-like command, built (and validated:
    a bad combination raises ``ConfigError``) once, before any work."""
    return EngineConfig(
        use_cache=not getattr(args, "no_cache", False),
        cache_store=args.cache_store,
        cache_path=args.cache_path,
    )


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    config = (
        ExperimentConfig.paper() if args.paper_scale else ExperimentConfig()
    )
    overrides = {"engine": _engine_config(args)}
    if args.sizes:
        overrides["current_sizes"] = tuple(args.sizes)
    if args.seeds:
        overrides["seeds"] = tuple(range(1, args.seeds + 1))
    if args.existing:
        overrides["n_existing"] = args.existing
    if args.sa_iterations:
        overrides["sa_iterations"] = args.sa_iterations
    if args.budget_evals is not None:
        overrides["budget_evaluations"] = args.budget_evals
    if args.budget_seconds is not None:
        overrides["budget_seconds"] = args.budget_seconds
    if args.patience is not None:
        overrides["budget_patience"] = args.patience
    return replace(config, **overrides)


def _rate_cell(numerator: int, denominator: int) -> str:
    """A percentage cell; ``-`` when nothing was counted.

    Derived columns must never divide by a zero candidate count -- a
    run cut by ``--budget-evals 0`` (or an all-store-served warm run)
    legitimately reports zero probes on an axis.
    """
    if denominator <= 0:
        return "-"
    return f"{numerator / denominator * 100.0:.1f}%"


def render_cache_statistics(records) -> str:
    """The per-run evaluation-engine statistics table."""
    store_rows = {
        name: (hits, misses, writes)
        for name, hits, misses, writes, _rate in store_statistics(records)
    }
    stage_rows = {
        name: (sched_ns, metrics_ns, decode_ns)
        for name, sched_ns, metrics_ns, decode_ns in stage_statistics(records)
    }
    rows = [
        (
            name,
            evals,
            hits,
            misses,
            _rate_cell(hits, hits + misses),
            store_rows[name][0],
            store_rows[name][2],
            _rate_cell(
                store_rows[name][0], store_rows[name][0] + store_rows[name][1]
            ),
            f"{stage_rows[name][0] / 1e6:.1f}",
            f"{stage_rows[name][1] / 1e6:.1f}",
            f"{stage_rows[name][2] / 1e6:.1f}",
        )
        for name, evals, hits, misses, _rate in cache_statistics(records)
    ]
    return format_table(
        [
            "strategy", "evaluations", "cache hits", "cache misses",
            "hit rate", "store hits", "store writes", "store rate",
            "sched ms", "metrics ms", "decode ms",
        ],
        rows,
        title="Evaluation engine statistics (all runs)",
    )


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        )
    return parsed


def _nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value!r}"
        )
    return parsed


def _nonnegative_float(value: str) -> float:
    parsed = float(value)
    if not parsed >= 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {value!r}"
        )
    return parsed


def _strategy_name(value: str) -> str:
    """A strategy name ``family_strategy`` accepts (``SA@k`` too)."""
    try:
        parse_strategy_name(value)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    """The result-store switches, shared by every run-like subcommand."""
    parser.add_argument(
        "--cache-store", choices=["memory", "sqlite"], default="memory",
        help=(
            "evaluation result-store backend: the process-local LRU "
            "(default) or a persistent sqlite database at --cache-path "
            "that serves repeated runs warm (results are identical)"
        ),
    )
    parser.add_argument(
        "--cache-path",
        help="sqlite store path (required with --cache-store sqlite)",
    )


# ----------------------------------------------------------------------
# scenarios subcommand
# ----------------------------------------------------------------------
def _scenarios_list() -> str:
    rows = []
    for family in families.iter_families():
        all_params = [family.params(p) for p in family.preset_names]
        node_counts = sorted({p.n_nodes for p in all_params})
        nodes = (
            str(node_counts[0])
            if len(node_counts) == 1
            else f"{node_counts[0]}-{node_counts[-1]}"
        )
        shapes = "/".join(sorted({p.workload_shape for p in all_params}))
        rows.append(
            (
                family.name,
                " ".join(family.preset_names),
                nodes,
                shapes,
                family.description,
            )
        )
    return format_table(
        ["family", "presets", "nodes", "shape", "description"],
        rows,
        title=f"Scenario families ({len(rows)} registered)",
    )


def _scenarios_describe(name: str) -> str:
    return families.get_family(name).describe()


def _scenarios_run(args: argparse.Namespace) -> int:
    engine = _engine_config(args)
    family = families.get_family(args.family)
    scenario = family.build(args.preset, seed=args.seed)
    if args.save:
        from repro.serialize.scenario_codec import save_scenario

        save_scenario(scenario, args.save)
        print(f"scenario saved to {args.save}")
    spec = scenario.spec()
    budget = make_budget(args.budget_evals, args.budget_seconds, args.patience)
    rows = []
    stage_lines = []
    for name in args.strategies:
        strategy = family_strategy(
            name, args.seed, args.sa_iterations, budget, engine
        )
        result = strategy.design(spec)
        stage_lines.append(
            f"  {name}: sched {result.sched_ns / 1e6:.1f} ms, "
            f"metrics {result.metrics_ns / 1e6:.1f} ms, "
            f"decode {result.decode_ns / 1e6:.1f} ms"
        )
        if args.cache_store != "memory":
            stage_lines.append(
                f"  {name}: store {result.store_hits} hits / "
                f"{result.store_misses} misses / "
                f"{result.store_writes} writes, "
                f"open {result.store_open_ns / 1e6:.1f} ms, "
                f"commit {result.store_commit_ns / 1e6:.1f} ms"
            )
        search = result.search
        rows.append(
            (
                name,
                "yes" if result.valid else "NO",
                result.objective,
                result.runtime_seconds,
                result.evaluations,
                result.cache_hits,
                result.cache_misses,
                result.store_hits,
                _rate_cell(
                    result.store_hits,
                    result.store_hits + result.store_misses,
                ),
                search.steps if search is not None else 0,
                search.evaluations_to_incumbent if search is not None else 0,
            )
        )
    preset = args.preset if args.preset else family.smallest_preset
    print(
        format_table(
            [
                "strategy", "valid", "objective", "runtime s",
                "evaluations", "cache hits", "cache misses",
                "store hits", "store rate", "steps", "evals to best",
            ],
            rows,
            title=(
                f"Family {family.name} preset {preset} seed {args.seed} "
                f"(current: {scenario.current.process_count} processes)"
            ),
        )
    )
    print("engine stage times:")
    for line in stage_lines:
        print(line)
    return 0 if all(row[1] == "yes" for row in rows) else 1


def _portfolio_identity(result) -> tuple:
    """Design identity of a portfolio race's winner (determinism checks)."""
    if result.best is None:
        return ("invalid",)
    return (result.winner.name,) + design_identity(result.best)


def _scenarios_portfolio(args: argparse.Namespace) -> int:
    engine = _engine_config(args)
    family = families.get_family(args.family)
    scenario = family.build(args.preset, seed=args.seed)
    spec = scenario.spec()
    member_budget = make_budget(
        args.member_budget_evals, None, args.patience
    )
    shared_budget = make_budget(args.budget_evals, args.budget_seconds, None)
    if args.shards and not args.elastic and args.budget_seconds is not None:
        print(
            "--budget-seconds needs --elastic when sharded: replay mode "
            "cannot meter wall-clock deterministically"
        )
        return 2

    def race(shards: Optional[int] = None, elastic: Optional[bool] = None):
        return run_portfolio(
            spec,
            args.strategies,
            seed=args.seed,
            sa_iterations=args.sa_iterations,
            member_budget=member_budget,
            shared_budget=shared_budget,
            engine=engine,
            shards=args.shards if shards is None else shards,
            elastic=args.elastic if elastic is None else elastic,
        )

    result = race()
    rows = []
    for member in result.members:
        r = member.result
        search = r.search
        rows.append(
            (
                member.name,
                "yes" if r.valid else "NO",
                r.objective,
                member.evaluations_served,
                member.rounds,
                search.steps if search is not None else 0,
                search.evaluations_to_incumbent if search is not None else 0,
                (search.stop_reason if search is not None else "-") or "-",
                "WINNER" if result.winner is member else "",
            )
        )
    preset = args.preset if args.preset else family.smallest_preset
    print(
        format_table(
            [
                "member", "valid", "objective", "evals served", "rounds",
                "steps", "evals to best", "stop reason", "",
            ],
            rows,
            title=(
                f"Portfolio race on {family.name} preset {preset} "
                f"seed {args.seed} ({len(result.members)} members)"
            ),
        )
    )
    fleet = "engine"
    if getattr(result, "shards", 0):
        fleet = (
            f"fleet ({result.shards} shards, {result.mode} mode, "
            f"{result.respawns} respawns)"
        )
    print(
        f"{fleet}: {result.evaluations} evaluations, "
        f"{result.cache_hits} cache hits, {result.cache_misses} misses, "
        f"{result.runtime_seconds:.2f}s wall"
    )
    if getattr(result, "shards", 0) and args.verbose:
        for sid, counters, busy in zip(
            result.shard_ids, result.shard_counters, result.shard_busy_seconds
        ):
            print(
                f"  shard {sid}: {counters.evaluations} evaluations, "
                f"{counters.cache_hits} cache hits, "
                f"{counters.cache_misses} misses, {busy:.2f}s busy"
            )
        steals = sum(1 for e in result.events if e.kind == "steal")
        checkpoints = sum(1 for e in result.events if e.kind == "checkpoint")
        print(
            f"  events: {steals} steals, {checkpoints} checkpoints, "
            f"{result.respawns} respawns"
        )
    if args.cache_store != "memory":
        print(
            f"store: {result.store_hits} hits, {result.store_misses} "
            f"misses, {result.store_writes} writes "
            f"(rate {_rate_cell(result.store_hits, result.store_hits + result.store_misses)})"
        )
    if not result.valid:
        print("no member found a valid design")
        return 1

    if args.check_determinism:
        reference = _portfolio_identity(result)
        checks = [("repeat", race)]
        shard_axis = args.budget_seconds is None
        if shard_axis:
            # The distributed race (replay mode) must produce the same
            # winner as the in-process lockstep reference; wall-clock
            # budgets are rejected by replay mode, so this axis only
            # runs for deterministic budgets.
            checks.append((
                "shards=2",
                lambda: race(shards=2, elastic=False),
            ))
        failures = []
        for label, runner in checks:
            if _portfolio_identity(runner()) != reference:
                failures.append(label)
        if shared_budget is None:
            # Without a contended budget every member's trajectory is
            # independent, so even the racing order cannot change the
            # winning design.
            reversed_result = run_portfolio(
                spec,
                list(reversed(args.strategies)),
                seed=args.seed,
                sa_iterations=args.sa_iterations,
                member_budget=member_budget,
                shared_budget=None,
            )
            if (
                _portfolio_identity(reversed_result)[1:]
                != reference[1:]
            ):
                failures.append("reversed racing order")
        if failures:
            print(f"DETERMINISM FAILURES: {', '.join(failures)}")
            return 1
        passed = "repeat"
        if shard_axis:
            passed += ", shards=2"
        if shared_budget is None:
            passed += ", reversed order"
        print(f"determinism checks passed ({passed})")
    return 0


def _scenarios_sweep(args: argparse.Namespace) -> int:
    records = run_family_matrix(
        family_names=args.families,
        preset=args.preset,
        seeds=tuple(range(1, args.seeds + 1)),
        strategies=tuple(args.strategies),
        sa_iterations=args.sa_iterations,
        engine=_engine_config(args),
        budget=make_budget(
            args.budget_evals, args.budget_seconds, args.patience
        ),
        verbose=args.verbose,
    )
    rows = []
    for record in records:
        rows.append(
            (
                record.family,
                record.preset,
                record.seed,
                record.strategy,
                "on" if record.use_cache else "off",
                "yes" if record.result.valid else "NO",
                record.result.objective,
                record.result.runtime_seconds,
            )
        )
    print(
        format_table(
            [
                "family", "preset", "seed", "strategy", "cache",
                "valid", "objective", "runtime s",
            ],
            rows,
            title="Scenario-family stress matrix",
        )
    )
    if not records:
        print("no runnable (family, seed) cells -- all skipped as "
              "unschedulable")
        return 1
    return 0 if all(r.result.valid for r in records) else 1


def _scenarios_smoke(args: argparse.Namespace) -> int:
    results = run_family_smoke(
        family_names=args.families,
        seed=args.seed,
        sa_iterations=args.sa_iterations,
        engine=_engine_config(args),
        verbose=args.verbose,
    )
    rows = []
    for smoke in results:
        objectives = " ".join(
            f"{name}={value:.1f}" for name, value in smoke.objectives.items()
        )
        rows.append(
            (
                smoke.family,
                smoke.preset,
                "ok" if smoke.ok else "FAIL",
                objectives or "-",
                smoke.runtime_seconds,
                "; ".join(smoke.failures) or "-",
            )
        )
    print(
        format_table(
            ["family", "preset", "status", "objectives", "runtime s", "failures"],
            rows,
            title="Scenario-family smoke sweep (smallest preset per family)",
        )
    )
    if args.cache_store != "memory":
        # Stable per-(family, strategy) design fingerprints: the CI
        # warm-restart gate diffs this block across two runs against
        # the same store path to assert byte-identical designs.
        print("\ndesign fingerprints:")
        for smoke in results:
            for name, digest in sorted(smoke.fingerprints.items()):
                print(f"  {smoke.family}/{name}: {digest}")
        hits = sum(smoke.store_hits for smoke in results)
        misses = sum(smoke.store_misses for smoke in results)
        rate = hits / (hits + misses) if hits + misses else 0.0
        print(
            f"store totals: {hits} hits, {misses} misses "
            f"(rate {_rate_cell(hits, hits + misses)})"
        )
        if args.min_store_hit_rate is not None and rate < args.min_store_hit_rate:
            print(
                f"STORE HIT RATE {rate:.3f} below required "
                f"{args.min_store_hit_rate:.3f}"
            )
            return 1
    failed = [smoke.family for smoke in results if not smoke.ok]
    if failed:
        print(f"\nFAILED families: {', '.join(failed)}")
        return 1
    return 0


def _handle_scenarios(args: argparse.Namespace) -> int:
    if args.action == "list":
        print(_scenarios_list())
        return 0
    if args.action == "describe":
        print(_scenarios_describe(args.family))
        return 0
    if args.action == "run":
        return _scenarios_run(args)
    if args.action == "sweep":
        return _scenarios_sweep(args)
    if args.action == "portfolio":
        return _scenarios_portfolio(args)
    return _scenarios_smoke(args)


def _add_scenarios_parser(subparsers) -> None:
    scen = subparsers.add_parser(
        "scenarios",
        help="scenario-diversity subsystem: family registry and sweeps",
        description=(
            "Browse, generate and sweep the registered scenario families."
        ),
    )
    actions = scen.add_subparsers(dest="action", required=True, metavar="action")

    actions.add_parser("list", help="list the registered families")

    describe = actions.add_parser(
        "describe", help="show one family's presets and parameters"
    )
    describe.add_argument("family", help="family name (see: scenarios list)")

    run = actions.add_parser(
        "run", help="run strategies on one generated family scenario"
    )
    run.add_argument("family", help="family name (see: scenarios list)")
    run.add_argument("--preset", help="preset name (default: smallest)")
    run.add_argument("--seed", type=int, default=1, help="scenario seed")
    run.add_argument(
        "--strategies", nargs="+", type=_strategy_name,
        default=["AH", "MH", "SA"], help="strategies to run",
    )
    run.add_argument(
        "--sa-iterations", type=_nonnegative_int,
        default=DEFAULT_FAMILY_SA_ITERATIONS,
        help="simulated-annealing iterations",
    )
    run.add_argument(
        "--no-cache", action="store_true", help="disable evaluation caching"
    )
    run.add_argument(
        "--budget-evals", type=_nonnegative_int,
        help=(
            "evaluation cap per search phase (MH: the descent; SA: "
            "probe, walk and each polish descent individually)"
        ),
    )
    run.add_argument(
        "--budget-seconds", type=_nonnegative_float,
        help="per-strategy wall-clock budget (machine-dependent)",
    )
    run.add_argument(
        "--patience", type=_positive_int,
        help="stop a search after this many steps without improvement",
    )
    run.add_argument("--save", help="also save the scenario JSON to this path")
    _add_store_options(run)

    portfolio = actions.add_parser(
        "portfolio",
        help=(
            "race a strategy portfolio over one shared engine "
            "(deterministic lockstep, shared budget, best incumbent wins)"
        ),
    )
    portfolio.add_argument("family", help="family name (see: scenarios list)")
    portfolio.add_argument("--preset", help="preset name (default: smallest)")
    portfolio.add_argument("--seed", type=int, default=1, help="scenario seed")
    portfolio.add_argument(
        "--strategies", nargs="+", type=_strategy_name,
        default=["MH", "SA"],
        help="racing members, in racing (= tie-breaking) order",
    )
    portfolio.add_argument(
        "--sa-iterations", type=_nonnegative_int,
        default=DEFAULT_FAMILY_SA_ITERATIONS,
        help="simulated-annealing iterations",
    )
    portfolio.add_argument(
        "--budget-evals", type=_nonnegative_int,
        help="shared racing budget in engine evaluations (all members)",
    )
    portfolio.add_argument(
        "--budget-seconds", type=_nonnegative_float,
        help="shared racing wall-clock budget (machine-dependent)",
    )
    portfolio.add_argument(
        "--member-budget-evals", type=_positive_int,
        help="per-member evaluation budget (each member's own cap)",
    )
    portfolio.add_argument(
        "--patience", type=_positive_int,
        help="per-member patience (steps without improvement)",
    )
    portfolio.add_argument(
        "--shards", type=_nonnegative_int, default=0,
        help=(
            "race the portfolio across this many worker processes "
            "(0 = in-process lockstep reference; replay mode keeps the "
            "winner byte-identical to the lockstep race)"
        ),
    )
    portfolio.add_argument(
        "--elastic",
        action="store_true",
        help=(
            "with --shards: elastic mode -- arrival-order budget "
            "grants, wall-clock budgets and dynamic work-stealing "
            "(reproducible in aggregate, not byte-for-byte)"
        ),
    )
    portfolio.add_argument(
        "-v", "--verbose",
        action="store_true",
        help="with --shards: per-shard engine breakdown and race events",
    )
    portfolio.add_argument(
        "--check-determinism",
        action="store_true",
        help=(
            "re-race as a repeat, with shards=2, and (without a shared "
            "budget) in reversed member order; fail unless the winning "
            "design is byte-identical (the CI smoke gate)"
        ),
    )
    _add_store_options(portfolio)

    sweep = actions.add_parser(
        "sweep",
        help="stress matrix: every strategy x every family, cache on/off",
    )
    sweep.add_argument(
        "--families", nargs="+", help="families to sweep (default: all)"
    )
    sweep.add_argument("--preset", help="preset per family (default: smallest)")
    sweep.add_argument(
        "--seeds", type=_positive_int, default=1,
        help="number of scenario seeds per family",
    )
    sweep.add_argument(
        "--strategies", nargs="+", type=_strategy_name,
        default=["AH", "MH", "SA"], help="strategies to run",
    )
    sweep.add_argument(
        "--sa-iterations", type=_nonnegative_int,
        default=DEFAULT_FAMILY_SA_ITERATIONS,
        help="simulated-annealing iterations",
    )
    sweep.add_argument(
        "--budget-evals", type=_nonnegative_int,
        help=(
            "evaluation cap per search phase (MH: the descent; SA: "
            "probe, walk and each polish descent individually)"
        ),
    )
    sweep.add_argument(
        "--budget-seconds", type=_nonnegative_float,
        help="per-strategy wall-clock budget (machine-dependent)",
    )
    sweep.add_argument(
        "--patience", type=_positive_int,
        help="stop a search after this many steps without improvement",
    )
    sweep.add_argument(
        "-v", "--verbose", action="store_true", help="per-run progress"
    )
    _add_store_options(sweep)

    smoke = actions.add_parser(
        "smoke",
        help=(
            "CI checks: smallest preset per family must run AH/MH/SA to "
            "valid, deterministic designs and round-trip the codec"
        ),
    )
    smoke.add_argument(
        "--families", nargs="+", help="families to check (default: all)"
    )
    smoke.add_argument("--seed", type=int, default=1, help="scenario seed")
    smoke.add_argument(
        "--sa-iterations", type=_nonnegative_int,
        default=DEFAULT_FAMILY_SA_ITERATIONS,
        help="simulated-annealing iterations",
    )
    smoke.add_argument(
        "-v", "--verbose", action="store_true", help="per-family progress"
    )
    _add_store_options(smoke)
    smoke.add_argument(
        "--min-store-hit-rate", type=float,
        help=(
            "fail unless the sweep's aggregate store hit rate reaches "
            "this fraction (the CI warm-restart gate's second run)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro-experiments`` argument parser (figures and
    ``scenarios``); :func:`main` parses with it."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation figures of Pop et al., DAC 2001, "
            "and sweep the scenario-diversity families."
        ),
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar="command"
    )

    figure_options = argparse.ArgumentParser(add_help=False)
    figure_options.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's workload sizes (slow: hours of SA)",
    )
    figure_options.add_argument(
        "--sizes", type=int, nargs="+", help="current-application sizes"
    )
    figure_options.add_argument(
        "--seeds", type=int, help="number of random seeds per size"
    )
    figure_options.add_argument(
        "--existing", type=int, help="existing-application size"
    )
    figure_options.add_argument(
        "--sa-iterations", type=_nonnegative_int,
        help="simulated-annealing iterations",
    )
    _add_store_options(figure_options)
    figure_options.add_argument(
        "--budget-evals", type=_nonnegative_int,
        help=(
            "evaluation cap per search phase (MH: the descent; SA: "
            "probe, walk and each polish descent individually)"
        ),
    )
    figure_options.add_argument(
        "--budget-seconds", type=_nonnegative_float,
        help="per-strategy wall-clock budget (machine-dependent)",
    )
    figure_options.add_argument(
        "--patience", type=_positive_int,
        help="stop a search after this many steps without improvement",
    )
    figure_options.add_argument(
        "-v", "--verbose", action="store_true", help="per-scenario progress"
    )
    for figure in ("fig-quality", "fig-runtime", "fig-future", "all"):
        subparsers.add_parser(
            figure,
            parents=[figure_options],
            help=f"regenerate {figure}" if figure != "all" else "everything",
        )

    _add_scenarios_parser(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, run the requested experiment(s), print tables."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # Bad input (unknown family or preset, unschedulable scenario):
        # one line naming the cause, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed subcommand; returns the process exit code."""
    if args.command == "scenarios":
        return _handle_scenarios(args)

    config = _build_config(args)
    if args.command in ("fig-quality", "fig-runtime", "all"):
        records = run_comparison(config, verbose=args.verbose)
        if args.command in ("fig-quality", "all"):
            print(render_quality(fig_quality(config, records)))
            print()
        if args.command in ("fig-runtime", "all"):
            print(render_runtime(fig_runtime(config, records)))
            print()
        print(render_cache_statistics(records))
        print()
    if args.command in ("fig-future", "all"):
        print(render_future(fig_future(config, verbose=args.verbose)))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
