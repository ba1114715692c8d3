#!/usr/bin/env python3
"""The end-to-end benchmark of record.

One run sets the workload up, then repeats *passes* for ``--seconds``
(at least one), setting up again before every later pass.  A pass
drives the system only through its public entry points, in six
segments; each segment runs

* a sixth of the **sweep** -- AH, MH and SA one at a time on family
  cells (``family.build`` + ``strategy_for_family(...).design``),
  memory store: the paper's quality/runtime comparison;
* one **race** pair -- the 4xSA portfolio ``SA, SA@2, SA@3, SA@4``
  through ``run_portfolio``, lockstep (``shards=0``) and replayed on
  two shards (``shards=2``);
* in every second segment, one **store** cycle -- MH and SA on two
  cells against a fresh sqlite file (cold: writes), then again against
  the same file (warm: reads).

Every design is fingerprinted and checked (see ``check``), and every
time is reported at a reference machine speed (see ``calibrate``).  The
last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer self times of a
traced pass next to an untraced one (the spans are written to
``.perfbench-out/``).

    python3 perfbench/run.py --workload medium --seed 1 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from spans import LAYERS, ROOT_SPAN, Tracer, fold

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
REFERENCES = HERE / "references.json"

DEFAULT_SEED = 1
SA_ITERATIONS = 1200
RACE_MEMBERS = ("SA", "SA@2", "SA@3", "SA@4")
RACE_SHARDS = 2
#: Segments per pass: each runs a slice of the sweep and one race pair
#: (one lockstep, one sharded race); every second segment also runs a
#: store cycle.
SEGMENTS = 6
#: Set-ups before the first pass; one more runs before every later pass.
SETUP_REPEATS = 2
STRATEGIES = ("AH", "MH", "SA")
STORE_STRATEGIES = ("MH", "SA")
#: Root span of a sharded race: its self time is the parent waiting on
#: the shards, reported as its own layer rather than as ``other_s``.
SHARD_RACE_SPAN = "search.shard_race"
FAMILIES = (
    "uniform-baseline",
    "hetero-speed",
    "weighted-bus",
    "pipeline",
    "forkjoin",
    "bursty",
)

#: Seconds of one :func:`calibrate` loop at the reference speed (the
#: fast state of a 2-core VM).
CALIBRATION_REF_S = 0.0022

Cell = Tuple[str, int]  # (family, scenario seed)


def calibrate() -> Tuple[float, float]:
    """Process and wall seconds of a fixed loop of small numpy and list
    operations (about 2-3 ms), the mix the system's hot path runs.

    The benchmark's host changes speed by up to 2x within seconds, and
    a whole run can sit in one state.  Timing this loop before and
    after every call measures the speed the call ran at, and the call
    is reported at the reference speed.  The loop is benchmark code, so
    a change to the system cannot move it.
    """
    cpu = time.process_time()
    wall = time.perf_counter()
    idx = np.arange(600) * 7919 % 300
    vals = np.arange(600) * 104729 % 1000
    for _ in range(60):
        a = np.arange(300, dtype=np.float64) * 1.5
        order = np.lexsort((a, -a))
        x = np.zeros(300, dtype=np.int64)
        np.maximum.at(x, idx, vals)
        sorted(x.tolist())
        dict(enumerate(order.tolist()))
    return time.process_time() - cpu, time.perf_counter() - wall


def calibrate_cores() -> float:
    """Wall seconds of :func:`calibrate` on the slowest CPU, run on every
    CPU at once in forked children pinned one per CPU.

    A sharded race runs on every CPU and waits for its slowest shard, so
    its speed is the slowest CPU's, which the parent alone cannot see.
    """
    children = []
    for cpu in sorted(os.sched_getaffinity(0)):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: measure, report, leave without cleanup
            try:
                os.sched_setaffinity(0, {cpu})
                calibrate()  # the first loop pays the fork's page faults
                os.write(write, repr(calibrate()[1]).encode())
            finally:
                os._exit(0)
        os.close(write)
        children.append((pid, read))
    seconds = []
    for pid, read in children:
        with os.fdopen(read) as fh:
            seconds.append(float(fh.read()))
        os.waitpid(pid, 0)
    return max(seconds)


#: The workloads, named after the family preset every cell is built at.
WORKLOADS = ("medium", "small")
SWEEP_CELLS: List[Cell] = [(f, s) for f in FAMILIES for s in (1, 2)]
RACE_CELL: Cell = ("uniform-baseline", 1)
STORE_CELLS: List[Cell] = [("uniform-baseline", 1), ("hetero-speed", 1)]


def stream_seed(scenario_seed: int, seed: int) -> int:
    """The search seed of a cell under benchmark seed ``seed``.

    The default seed gives each cell its scenario seed, the repository's
    own family-run convention; every other seed shifts all SA streams
    to fresh, non-negative values.  Scenarios never depend on ``seed``:
    AH and MH designs are the same for every seed.
    """
    return scenario_seed + 1000 * ((seed - DEFAULT_SEED) % 2**32)


def cell_key(cell: Cell, strategy: str) -> str:
    return f"{cell[0]}/{cell[1]}/{strategy}"


# ----------------------------------------------------------------------
# outcomes of one pass
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One public call: a set-up, a strategy run or a race."""

    phase: str  # setup | sweep | race-* | store-cold | store-warm
    key: str  # reference key (cell/strategy, or "race")
    seconds: float  # process time (serial calls) or wall time (races)
    wall: float
    evaluations: int = 0
    fingerprint: str = "error"
    error: str = ""
    extra: Dict[str, float] = field(default_factory=dict)
    scale: float = 1.0  # reference speed over the speed the call ran at

    @property
    def valid(self) -> bool:
        return self.fingerprint not in ("invalid", "error")

    @property
    def ref_seconds(self) -> float:
        """``seconds`` at the reference speed (see :func:`calibrate`)."""
        return self.seconds * self.scale


class System:
    """The public entry points the benchmark drives."""

    def __init__(self) -> None:
        src = ROOT / "src"
        if not (src / "repro").is_dir():
            raise ImportError(f"no repro package under {src}")
        sys.path.insert(0, str(src))
        from repro.engine import CompiledSpec
        from repro.experiments.runner import (
            design_fingerprint,
            run_portfolio,
            strategy_for_family,
        )
        from repro.gen import families

        self.CompiledSpec = CompiledSpec
        self.fingerprint = design_fingerprint
        self.run_portfolio = run_portfolio
        self.strategy_for_family = strategy_for_family
        self.families = families


class Runner:
    """Runs set-ups and passes, optionally under a tracer."""

    def __init__(self, system: System, preset: str, seed: int):
        self.system = system
        self.preset = preset
        self.seed = seed
        self.specs: Dict[Cell, object] = {}
        self.tracer = None
        self._calibration: Optional[Tuple[float, float]] = None
        self._run_id = 0
        self._pairs = 0

    def _call(self, fn, root: str = ROOT_SPAN):
        """``fn()`` timed in process and wall time (and traced), plus
        each clock's speed scale: the reference calibration time over
        the mean of the calibrations just before and after the call."""
        tracer = self.tracer
        self._run_id += 1
        before = self._calibration or calibrate()
        c0 = time.process_time()
        w0 = time.perf_counter()
        if tracer is None:
            result = fn()
        else:
            with tracer.span(root, self._run_id):
                result = fn()
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        after = self._calibration = calibrate()
        cpu_scale, wall_scale = (
            2 * CALIBRATION_REF_S / (b + a) for b, a in zip(before, after)
        )
        return result, cpu, wall, cpu_scale, wall_scale

    # ------------------------------------------------------------------
    def setup(self) -> List[Outcome]:
        """Build every cell's scenario and compile it once; keeps the
        specs and returns one outcome per cell."""
        out = []
        specs = {}
        preset = self.preset
        for cell in dict.fromkeys(SWEEP_CELLS + [RACE_CELL] + STORE_CELLS):
            family = self.system.families.get_family(cell[0])

            def build(family=family, seed=cell[1]):
                spec = family.build(preset, seed=seed).spec()
                _ = self.system.CompiledSpec(spec, engine_core="array").arrays
                return spec

            specs[cell], cpu, wall, scale, _ = self._call(build)
            key = cell_key(cell, "build")
            out.append(Outcome("setup", key, cpu, wall, scale=scale))
        self.specs = specs
        return out

    def _design(self, phase, cell, strategy, **store) -> Outcome:
        spec = self.specs[cell]
        seed = stream_seed(cell[1], self.seed)
        make = self.system.strategy_for_family

        def design():
            return make(strategy, seed, True, 1, SA_ITERATIONS, **store).design(
                spec
            )

        key = cell_key(cell, strategy)
        try:
            result, cpu, wall, scale, _ = self._call(design)
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            traceback.print_exc()
            return Outcome(phase, key, 0.0, 0.0, error=repr(exc))
        return Outcome(
            phase,
            key,
            cpu,
            wall,
            result.evaluations,
            self.system.fingerprint(result) if result.valid else "invalid",
            extra={
                "store_hits": result.store_hits,
                "store_misses": result.store_misses,
                "store_writes": result.store_writes,
            },
            scale=scale,
        )

    def _race(self, shards: int) -> Outcome:
        cell = RACE_CELL
        spec = self.specs[cell]
        seed = stream_seed(cell[1], self.seed)
        phase = "race-sharded" if shards else "race-lockstep"

        def race():
            return self.system.run_portfolio(
                spec,
                RACE_MEMBERS,
                seed=seed,
                sa_iterations=SA_ITERATIONS,
                shards=shards,
            )

        root = SHARD_RACE_SPAN if shards else ROOT_SPAN
        before = calibrate_cores() if shards else 0.0
        try:
            result, cpu, wall, _, scale = self._call(race, root)
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            traceback.print_exc()
            return Outcome(phase, "race", 0.0, 0.0, error=repr(exc))
        if shards:
            scale = 2 * CALIBRATION_REF_S / (before + calibrate_cores())
        extra = {"coord_cpu_s": cpu, "cache_hits": result.cache_hits}
        busy = getattr(result, "shard_busy_seconds", None)
        if busy:
            extra["shard_busy_max_s"] = max(busy)
            extra["shard_wait_s"] = sum(wall - b for b in busy)
        best = result.best
        return Outcome(
            phase,
            "race",
            wall,
            wall,
            result.evaluations,
            self.system.fingerprint(best) if best is not None else "invalid",
            extra=extra,
            scale=scale,
        )

    def run_pass(self) -> List[Outcome]:
        """One pass: :data:`SEGMENTS` segments, each a slice of the sweep
        and one race pair, with a store cycle in every second segment.

        Spreading the races and store cycles through the pass lets their
        repeats see different moments of a machine whose speed drifts;
        successive race pairs alternate which arm goes first.
        """
        out: List[Outcome] = []
        size = len(SWEEP_CELLS) // SEGMENTS
        for k in range(SEGMENTS):
            for cell in SWEEP_CELLS[k * size : (k + 1) * size]:
                for strategy in STRATEGIES:
                    out.append(self._design("sweep", cell, strategy))
            self._pairs += 1
            arms = (0, RACE_SHARDS) if self._pairs % 2 else (RACE_SHARDS, 0)
            for shards in arms:
                out.append(self._race(shards))
            if k % 2:
                out.extend(self._store_cycle())
        return out

    def _store_cycle(self) -> List[Outcome]:
        """MH and SA on every store cell against a fresh sqlite file
        (cold), then again against the same file (warm)."""
        OUT_DIR.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        store = {"cache_store": "sqlite", "cache_path": f"{tmp}/results.db"}
        try:
            return [
                self._design(phase, cell, strategy, **store)
                for phase in ("store-cold", "store-warm")
                for cell in STORE_CELLS
                for strategy in STORE_STRATEGIES
            ]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def load_references(workload: str) -> Dict[str, str]:
    with open(REFERENCES) as fh:
        return json.load(fh)[workload]


def check(
    passes: Sequence[Sequence[Outcome]],
    references: Dict[str, str],
    seed: int,
) -> Tuple[List[Outcome], List[str]]:
    """Outcomes whose design is wrong, plus every problem found.

    A design is wrong when its call raised, or when its fingerprint
    differs from what it must equal: the recorded reference (every
    design at the default seed; the seed-independent AH and MH designs
    at any seed), the same call in every other pass, the lockstep
    race's winner (sharded arm) and the sweep's design of the same cell
    (both store phases).  A call on a known-infeasible cell -- one
    whose reference is ``invalid`` -- must stay invalid.
    """
    wrong: List[Outcome] = []
    problems: List[str] = []
    expected: Dict[Tuple[str, str], str] = {}

    def require(o: Outcome, want: Optional[str], why: str) -> bool:
        if want is not None and o.fingerprint != want:
            problems.append(
                f"{o.phase} {o.key}: {o.fingerprint} != {want} ({why})"
            )
            return False
        return True

    for outcomes in passes:
        sweep = {o.key: o.fingerprint for o in outcomes if o.phase == "sweep"}
        race = [o.fingerprint for o in outcomes if o.phase == "race-lockstep"]
        for o in outcomes:
            if o.error:
                problems.append(f"{o.phase} {o.key}: raised {o.error}")
                wrong.append(o)
                continue
            ok = True
            if seed == DEFAULT_SEED or not o.key.endswith(("/SA", "race")):
                ok &= require(o, references.get(o.key), "reference")
            else:
                cell = o.key.rsplit("/", 1)[0]
                infeasible = references.get(cell + "/AH") == "invalid"
                if o.valid == infeasible:
                    problems.append(
                        f"{o.phase} {o.key}: valid={o.valid} on a cell "
                        f"whose reference is {'in' if infeasible else ''}valid"
                    )
                    ok = False
            if o.phase == "race-sharded" and race:
                ok &= require(o, race[0], "lockstep winner")
            if o.phase.startswith("store"):
                ok &= require(o, sweep.get(o.key), "sweep design")
            ok &= require(
                o, expected.setdefault((o.phase, o.key), o.fingerprint),
                "earlier pass",
            )
            if not ok:
                wrong.append(o)
    return wrong, problems


def failed_share(outcomes: Sequence[Outcome], wrong: Sequence[Outcome]) -> float:
    """Share of calls that raised, gave no valid design, or changed one."""
    bad = {id(o) for o in wrong}
    return sum(1 for o in outcomes if id(o) in bad or not o.valid) / len(outcomes)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _phase(outcomes, phase):
    return [o for o in outcomes if o.phase == phase]


def per_call(passes, phase, attr: str = "ref_seconds") -> Dict[str, float]:
    """Each call's median time over its repeats in every pass."""
    samples: Dict[str, List[float]] = {}
    for p in passes:
        for o in _phase(p, phase):
            samples.setdefault(o.key, []).append(getattr(o, attr))
    return {k: statistics.median(v) for k, v in samples.items()}


def _timings(passes, attr: str) -> Dict[str, float]:
    """The timing metrics of ``passes``, from ``Outcome.<attr>``."""
    sweep = per_call(passes, "sweep", attr)
    valid = {o.key for o in _phase(passes[0], "sweep") if o.valid}
    evals = sum(o.evaluations for o in _phase(passes[0], "sweep"))
    sweep_s = sum(sweep.values())
    return {
        "sweep_s": sweep_s,
        "us_per_eval": sweep_s / evals * 1e6,
        "mh_run_s": statistics.mean(
            t for k, t in sweep.items() if k in valid and k.endswith("/MH")
        ),
        "sa_run_s": statistics.mean(
            t for k, t in sweep.items() if k in valid and k.endswith("/SA")
        ),
        "race_lockstep_s": per_call(passes, "race-lockstep", attr)["race"],
        "race_sharded_s": per_call(passes, "race-sharded", attr)["race"],
        "store_cold_s": sum(per_call(passes, "store-cold", attr).values()),
        "store_warm_s": sum(per_call(passes, "store-warm", attr).values()),
    }


def end_to_end(
    setups: Sequence[Sequence[Outcome]],
    passes: Sequence[Sequence[Outcome]],
    failed_frac: float,
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, str]]:
    """Metric name -> (value, unit), plus a note per metric giving its
    sample count and, for timings, the uncalibrated figure."""
    timings = _timings(passes, "ref_seconds")
    raw = _timings(passes, "seconds")
    setup_s = [sum(o.ref_seconds for o in setup) for setup in setups]
    raw["setup_s"] = statistics.median(
        sum(o.seconds for o in setup) for setup in setups
    )
    sweep = _phase(passes[0], "sweep")
    evals = sum(o.evaluations for o in sweep)
    cells = sum(1 for o in sweep if o.valid and o.key.endswith("/SA"))
    n = f"median over {len(passes)} passes"
    races = len(passes) * SEGMENTS
    cycles = len(passes) * SEGMENTS // 2
    stores = len(STORE_CELLS) * len(STORE_STRATEGIES)
    metrics = {"setup_s": (statistics.median(setup_s), "s")}
    metrics.update(
        (k, (v, "us" if k == "us_per_eval" else "s")) for k, v in timings.items()
    )
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
    )
    metrics["failed_frac"] = (failed_frac, "ratio")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, process time",
        "sweep_s": f"{len(sweep)} calls, each {n}, process time",
        "us_per_eval": f"{evals} evaluations per pass",
        "mh_run_s": f"mean of {cells} cells, each {n}, process time",
        "sa_run_s": f"mean of {cells} cells, each {n}, process time",
        "race_lockstep_s": f"median of {races} races, wall",
        "race_sharded_s": f"median of {races} races, wall",
        "store_cold_s": f"{stores} calls, each median of {cycles} cycles, "
        "process time",
        "store_warm_s": f"{stores} calls, each median of {cycles} cycles, "
        "process time",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
        "failed_frac": "invalid, raised or changed designs per call",
    }
    for k, v in raw.items():
        notes[k] += f"; uncalibrated {v:.6g}"
    return metrics, notes


def new_tracer():
    """A tracer with every layer and root name registered up front, so a
    traced run reports each per-layer metric even when it reads zero."""
    tracer = Tracer()
    for name in [ROOT_SPAN, SHARD_RACE_SPAN] + [layer.name for layer in LAYERS]:
        tracer.name_id(name)
    return tracer


def per_layer(
    tracer: Tracer, untraced: Sequence[Outcome], traced: Sequence[Outcome]
) -> Dict[str, Tuple[float, str]]:
    """Self time per layer (closing on ``other_s``), layer counters and
    the tracing overhead.

    The traced total is the summed duration of the root spans: the
    traced set-up and pass.  The overhead compares the traced pass with
    the untraced one, call by call at the reference speed.
    """
    name, start, end, parent, _ = tracer.arrays()
    traced_ns = float((end - start)[parent < 0].sum())
    layers = fold(tracer.names, name, start, end, parent, traced_ns)
    metrics = {k: (v, "s") for k, v in layers.items()}
    c = tracer.counters

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    hits = sum(o.extra.get("store_hits", 0) for o in traced)
    probes = hits + sum(o.extra.get("store_misses", 0) for o in traced)
    sharded = _phase(traced, "race-sharded")
    metrics.update(
        {
            "sched.kernel.calls": (c.get("sched.kernel.calls", 0), "count"),
            "sched.valid_ratio": (
                ratio("sched.kernel.ok", "sched.kernel.calls"), "ratio"),
            "sched.decode.calls": (c.get("sched.decode.calls", 0), "count"),
            "engine.delta.hit_ratio": (
                ratio("engine.delta.used", "engine.delta.calls"), "ratio"),
            "engine.cache.hit_ratio": (
                ratio("engine.cache.hits", "engine.cache.lookups"), "ratio"),
            "search.moves": (c.get("search.moves", 0), "count"),
            "engine.store.writes": (
                sum(o.extra.get("store_writes", 0) for o in traced), "count"),
            "engine.store.hit_ratio": (hits / probes if probes else 0.0, "ratio"),
            "search.shard_busy_max_s": (
                sum(o.extra.get("shard_busy_max_s", 0.0) for o in sharded), "s"),
            "search.shard_wait_s": (
                sum(o.extra.get("shard_wait_s", 0.0) for o in sharded), "s"),
            "search.coord_cpu_s": (
                sum(o.extra["coord_cpu_s"] for o in sharded), "s"),
            "trace.total_s": (traced_ns / 1e9, "s"),
            "trace.overhead_ratio": (
                sum(o.wall * o.scale for o in traced)
                / sum(o.wall * o.scale for o in untraced),
                "ratio",
            ),
            "trace.spans": (len(tracer), "count"),
        }
    )
    return metrics


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-references",
        action="store_true",
        help="run one pass at the default seed and store its fingerprints",
    )
    return parser.parse_args(argv)


def record(runner: Runner, workload: str) -> None:
    """Write the default seed's fingerprints as ``workload``'s references."""
    outcomes = runner.run_pass()
    refs = {
        o.key: o.fingerprint
        for o in outcomes
        if o.phase in ("sweep", "race-lockstep")
    }
    _, problems = check([outcomes], refs, DEFAULT_SEED)
    if problems:
        raise SystemExit("not recorded: " + "; ".join(problems))
    data = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    data[workload] = dict(sorted(refs.items()))
    REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(refs)} fingerprints for {workload}")


def report(metrics, notes=None) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"{name:26s} {value:14.6f} {unit}{note}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        system = System()
    except ImportError as exc:
        print(f"perfbench: cannot import the system under test: {exc}",
              file=sys.stderr)
        return 2
    runner = Runner(system, args.workload, args.seed)
    if args.record_references:
        if args.seed != DEFAULT_SEED:
            raise SystemExit("references are recorded at the default seed")
        runner.setup()
        record(runner, args.workload)
        return 0
    references = load_references(args.workload)

    if args.trace:
        runner.setup()
        untraced = runner.run_pass()
        tracer = new_tracer()
        tracer.install(LAYERS)
        runner.tracer = tracer
        tracer.active = True
        try:
            runner.setup()
            traced = runner.run_pass()
        finally:
            tracer.active = False
            runner.tracer = None
            tracer.uninstall()
        passes = [untraced, traced]
        wrong, problems = check(passes, references, args.seed)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.npz"
        tracer.write(str(spans))
        metrics = per_layer(tracer, untraced, traced)
        report(metrics)
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        setups = [runner.setup() for _ in range(SETUP_REPEATS)]
        passes = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            if passes:
                setups.append(runner.setup())
            passes.append(runner.run_pass())
        flat = [o for p in passes for o in p]
        wrong, problems = check(passes, references, args.seed)
        metrics, notes = end_to_end(setups, passes, failed_share(flat, wrong))
        report(metrics, notes)
    for problem in problems:
        print(f"problem: {problem}")
    attempted = sum(len(p) for p in passes)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(wrong),
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
