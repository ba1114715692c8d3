"""The runtime's array kernels against the pinned object-core oracle.

Every engine schedules with the array kernel and prices with the array
metric kernel.  The object scheduler (``ListScheduler``) and object
pricing (``core.metrics``) stay as the reference: here each registered
family's smallest preset is designed by MH and SA twice -- once through
the production ``design()`` and once with every evaluation request of
the same search program served by the object core -- and both must land
on the byte-identical design and schedule after the same number of
evaluations.
"""

from __future__ import annotations

import pytest

from oracleutil import oracle_identity, production_identity
from repro.experiments.runner import DEFAULT_FAMILY_SA_ITERATIONS, family_strategy
from repro.gen import families

SEED = 1


@pytest.fixture(scope="module")
def specs():
    built = {}
    for name in families.family_names():
        family = families.get_family(name)
        built[name] = family.build(family.smallest_preset, seed=SEED).spec()
    return built


@pytest.mark.parametrize("strategy", ["MH", "SA"])
@pytest.mark.parametrize("family_name", families.family_names())
def test_design_matches_object_core(specs, family_name, strategy):
    spec = specs[family_name]

    def fresh():
        return family_strategy(strategy, SEED, DEFAULT_FAMILY_SA_ITERATIONS)

    expected = production_identity(fresh(), spec)
    assert expected[0] != ("invalid",) and expected[2] is not None
    assert oracle_identity(fresh(), spec) == expected
