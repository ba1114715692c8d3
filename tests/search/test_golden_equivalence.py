"""Byte-identical seeded equivalence with the pre-refactor strategies.

``golden_designs.json`` was generated from the repository state
*before* the search-kernel refactor (the hand-rolled loops of PR 3):
for every registered scenario family's smallest preset at seed 1, the
full design identity -- mapping, priorities, message delays, objective
``repr`` and even the engine evaluation count -- of AH, MH and SA
(150 iterations, the smoke budget).  The kernel-backed strategies must
reproduce every cell exactly; any intentional change to search
behavior must regenerate the goldens and say so in the diff.

The cache-on/off equivalence for every family is covered by
``run_family_smoke`` (the CI `scenarios smoke` gate); here one family
re-checks that axis against the golden record itself so the tier-1
suite alone pins the full contract end-to-end.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.runner import strategy_for_family
from repro.gen import families

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_designs.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())
STRATEGIES = ("AH", "MH", "SA")

#: The family whose golden cell is additionally re-checked with the
#: evaluation cache off.
CROSS_MODE_FAMILY = "uniform-baseline"


def observed_identity(result) -> dict:
    return {
        "mapping": dict(sorted(result.mapping.as_dict().items())),
        "priorities": {
            k: repr(v) for k, v in sorted(result.priorities.items())
        },
        "message_delays": dict(
            sorted((result.message_delays or {}).items())
        ),
        "objective": repr(result.objective),
        "evaluations": result.evaluations,
    }


def golden_cell(family_name: str):
    family = families.get_family(family_name)
    key = f"{family_name}/{family.smallest_preset}/seed{GOLDEN['seed']}"
    return family, GOLDEN["designs"][key]


@pytest.fixture(scope="module")
def specs():
    """One built scenario spec per family (shared across strategies)."""
    built = {}
    for name in families.family_names():
        family = families.get_family(name)
        built[name] = family.build(
            family.smallest_preset, seed=GOLDEN["seed"]
        ).spec()
    return built


@pytest.mark.parametrize("family_name", families.family_names())
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_matches_pre_refactor_design(specs, family_name, strategy):
    family, cell = golden_cell(family_name)
    result = strategy_for_family(
        strategy, GOLDEN["seed"], True, 1, GOLDEN["sa_iterations"]
    ).design(specs[family_name])
    assert result.valid
    assert observed_identity(result) == cell[strategy]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "use_cache", [pytest.param(False, id="cache-off")]
)
def test_golden_holds_across_engine_modes(specs, strategy, use_cache):
    _, cell = golden_cell(CROSS_MODE_FAMILY)
    result = strategy_for_family(
        strategy,
        GOLDEN["seed"],
        use_cache,
        1,
        GOLDEN["sa_iterations"],
    ).design(specs[CROSS_MODE_FAMILY])
    assert result.valid
    assert observed_identity(result) == cell[strategy]
