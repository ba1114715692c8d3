"""The built-in scenario families.

Seven families cover the diversity axes the paper's single generator
does not: architecture-level heterogeneity (per-node speeds), bus-level
heterogeneity (variable-length TDMA slots), three workload topologies
beyond layered DAGs (pipeline chains, fork--join, bursty periodic), and
a combined stress family.  Every family's smallest preset is sized so
CI can run all three strategies on it in seconds; larger presets are
for local sweeps.

Adding a family is one :func:`~repro.gen.families.registry.register_family`
call -- the CLI, the stress matrix and the CI smoke sweep pick it up
automatically (and CI will refuse it unless AH, MH and SA all solve its
smallest preset deterministically).
"""

from __future__ import annotations

from dataclasses import replace

from repro.gen.families.base import ScenarioFamily
from repro.gen.families.registry import register_family
from repro.gen.scenario import ScenarioParams

# Shared scale anchors.  ``_TINY`` is the smoke scale: every family's
# first preset derives from it, so the CI sweep stays fast.
_TINY = ScenarioParams(
    n_nodes=4, hyperperiod=2400, n_existing=10, n_current=5
)
_SMALL = ScenarioParams(n_nodes=6, hyperperiod=4800, n_existing=24, n_current=10)
_MEDIUM = ScenarioParams(n_nodes=6, hyperperiod=4800, n_existing=60, n_current=20)
#: The paper's platform and existing application: 400 processes on 10
#: nodes.
_PAPER = ScenarioParams(n_nodes=10, hyperperiod=4800, n_existing=400)

#: The figures' cells (slides 15-17) as ``uniform-baseline`` presets,
#: one per current-application size: ``fig-*`` at laptop scale (the
#: ``medium`` platform and existing application; ``fig-20`` equals
#: ``medium``) and ``paper-*`` at the paper's.
_FIG_CELLS = {f"fig-{n}": replace(_MEDIUM, n_current=n) for n in (10, 20, 30)}
_PAPER_CELLS = {
    f"paper-{n}": replace(_PAPER, n_current=n) for n in (40, 80, 160, 240, 320)
}
FIG_PRESETS = tuple(_FIG_CELLS)
PAPER_PRESETS = tuple(_PAPER_CELLS)

#: Speed ladders: same node count, ~2.3x spread between the slowest
#: and fastest node -- enough to make mapping decisions matter without
#: making the slow nodes useless.
_SPEEDS_4 = (0.7, 1.0, 1.3, 1.6)
_SPEEDS_6 = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6)

#: Weighted bus layouts: one short/thin slot pair and one long/fat
#: slot pair per platform; round lengths match the uniform rounds
#: (16 for 4 nodes, 24 for 6) so the hyperperiods stay valid.
_SLOTS_4 = dict(slot_lengths=(2, 4, 4, 6), slot_capacities=(8, 16, 16, 24))
_SLOTS_6 = dict(
    slot_lengths=(2, 2, 4, 4, 6, 6),
    slot_capacities=(8, 8, 16, 16, 24, 24),
)

UNIFORM_BASELINE = register_family(
    ScenarioFamily(
        name="uniform-baseline",
        description=(
            "The paper's scenario shape: homogeneous nodes, uniform TDMA "
            "slots, layered TGFF-style graphs"
        ),
        presets={
            "tiny": _TINY,
            "small": _SMALL,
            "medium": _MEDIUM,
            **_FIG_CELLS,
            **_PAPER_CELLS,
        },
    )
)

HETERO_SPEED = register_family(
    ScenarioFamily(
        name="hetero-speed",
        description=(
            "Heterogeneous node speeds (0.6x-1.6x): WCET tables scale "
            "per node, so mapping choices trade speed against slack"
        ),
        presets={
            "tiny": replace(_TINY, node_speeds=_SPEEDS_4),
            "small": replace(_SMALL, node_speeds=_SPEEDS_6),
            "medium": replace(_MEDIUM, node_speeds=_SPEEDS_6),
        },
    )
)

WEIGHTED_BUS = register_family(
    ScenarioFamily(
        name="weighted-bus",
        description=(
            "Variable-length TDMA slots: short/thin and long/fat slots "
            "in one round, stressing message scheduling asymmetry"
        ),
        presets={
            "tiny": replace(_TINY, **_SLOTS_4),
            "small": replace(_SMALL, **_SLOTS_6),
            "medium": replace(_MEDIUM, **_SLOTS_6),
        },
    )
)

PIPELINE = register_family(
    ScenarioFamily(
        name="pipeline",
        description=(
            "Pipeline-chain workloads: every graph is a single chain, "
            "maximizing critical paths and bus traffic per process"
        ),
        presets={
            "tiny": replace(_TINY, workload_shape="pipeline"),
            "small": replace(_SMALL, workload_shape="pipeline"),
            "medium": replace(_MEDIUM, workload_shape="pipeline"),
        },
    )
)

FORKJOIN = register_family(
    ScenarioFamily(
        name="forkjoin",
        description=(
            "Fork-join workloads: parallel branch chains joining in a "
            "sink, the synchronization pattern of data-parallel apps"
        ),
        presets={
            "tiny": replace(_TINY, workload_shape="forkjoin"),
            "small": replace(_SMALL, workload_shape="forkjoin"),
            "medium": replace(_MEDIUM, workload_shape="forkjoin"),
        },
    )
)

BURSTY = register_family(
    ScenarioFamily(
        name="bursty",
        description=(
            "Bursty periodic workloads: many small graphs at the "
            "shortest period over a long-period background load"
        ),
        presets={
            "tiny": replace(_TINY, workload_shape="bursty"),
            "small": replace(_SMALL, workload_shape="bursty"),
            "medium": replace(_MEDIUM, workload_shape="bursty"),
        },
    )
)

HETERO_MIXED = register_family(
    ScenarioFamily(
        name="hetero-mixed",
        description=(
            "Combined stress: heterogeneous speeds, weighted bus and "
            "pipeline workloads in one scenario"
        ),
        presets={
            "tiny": replace(
                _TINY,
                node_speeds=_SPEEDS_4,
                workload_shape="pipeline",
                **_SLOTS_4,
            ),
            "small": replace(
                _SMALL,
                node_speeds=_SPEEDS_6,
                workload_shape="pipeline",
                **_SLOTS_6,
            ),
        },
    )
)
