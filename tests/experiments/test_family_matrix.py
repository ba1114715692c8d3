"""Tests for the scenario-family stress matrix and CI smoke sweep."""

import pytest

from repro.experiments.runner import run_family_matrix, run_family_smoke
from repro.gen import families


class TestFamilySmoke:
    """The acceptance gate for new families: every registered family's
    smallest preset must run AH, MH and SA to a valid schedule,
    byte-identically with the cache on/off and with two workers, and
    round-trip the JSON codec byte-identically."""

    @pytest.fixture(scope="class")
    def results(self):
        return run_family_smoke(sa_iterations=60)

    def test_covers_every_registered_family(self, results):
        assert [r.family for r in results] == families.family_names()
        assert len(results) >= 5

    def test_all_families_pass(self, results):
        failures = {r.family: r.failures for r in results if not r.ok}
        assert not failures, f"smoke failures: {failures}"

    def test_all_strategies_solved_each_family(self, results):
        for smoke in results:
            assert set(smoke.objectives) == {"AH", "MH", "SA"}

    def test_build_failure_is_reported_not_raised(self):
        from repro.gen.families import ScenarioFamily, register_family, \
            unregister_family
        from repro.gen.scenario import ScenarioParams

        # Utilizations that leave no future capacity fail the build
        # with a MappingError; the smoke runner must report it.
        bad = ScenarioFamily(
            name="doomed-family",
            description="always unbuildable",
            presets={
                "tiny": ScenarioParams(
                    n_existing=5,
                    n_current=3,
                    existing_utilization=0.6,
                    current_utilization=0.5,
                )
            },
        )
        register_family(bad)
        try:
            results = run_family_smoke(
                family_names=["doomed-family"], sa_iterations=10
            )
        finally:
            unregister_family("doomed-family")
        assert len(results) == 1
        assert not results[0].ok
        assert "build failed" in results[0].failures[0]


class TestFamilyMatrix:
    @pytest.fixture(scope="class")
    def records(self):
        return run_family_matrix(
            family_names=["uniform-baseline", "pipeline"],
            seeds=(1,),
            strategies=("AH", "MH"),
            sa_iterations=40,
        )

    def test_grid_is_complete(self, records):
        cells = {(r.family, r.strategy, r.use_cache) for r in records}
        assert len(cells) == 2 * 2 * 2
        assert len(records) == len(cells)

    def test_all_cells_valid(self, records):
        assert all(r.result.valid for r in records)

    def test_cache_modes_produce_identical_designs(self, records):
        by_cell = {}
        for record in records:
            key = (record.family, record.seed, record.strategy)
            by_cell.setdefault(key, {})[record.use_cache] = record.result
        for key, modes in by_cell.items():
            assert (
                modes[True].design_identity() == modes[False].design_identity()
            ), f"cache on/off designs differ for {key}"

    def test_matrix_uses_smallest_preset_by_default(self, records):
        for record in records:
            family = families.get_family(record.family)
            assert record.preset == family.smallest_preset


class TestDesignIdentity:
    def test_invalid_results_share_identity(self):
        from repro.core.strategy import DesignResult

        a = DesignResult("AH", valid=False)
        b = DesignResult("MH", valid=False)
        assert a.design_identity() == b.design_identity()
