"""Tests for the experiment harnesses (tiny configurations)."""

import pytest

from repro.core.initial_mapping import InitialMapper
from repro.core.strategy import make_strategy
from repro.engine import EngineCounters
from repro.experiments.fig_future import FutureRow, fig_future
from repro.experiments.fig_future import render as render_future
from repro.experiments.fig_quality import (
    QualityRow,
    deviation,
    fig_quality,
)
from repro.experiments.fig_quality import render as render_quality
from repro.experiments.fig_runtime import RuntimeRow, fig_runtime
from repro.experiments.fig_runtime import render as render_runtime
from repro.experiments.runner import (
    FIGURE_FAMILY,
    ExperimentConfig,
    cells_of,
    engine_statistics,
    mean,
    preset_size,
)
from repro.gen import families
from repro.gen.scenario import ScenarioParams


@pytest.fixture(scope="module")
def config() -> ExperimentConfig:
    return ExperimentConfig(
        presets=("tiny", "small"),
        seeds=(1, 2, 3),
        sa_iterations=40,
        future_apps_per_scenario=3,
    )


@pytest.fixture(scope="module")
def records(config):
    return config.run_matrix()


class TestRunner:
    def test_one_record_per_cell(self, config, records):
        assert len(records) == len(config.presets) * len(config.seeds) * 3

    def test_all_strategies_present(self, config, records):
        for preset in config.presets:
            for runs in cells_of(records, preset):
                assert set(runs) == {"AH", "MH", "SA"}

    def test_cache_statistics_derives_strategies(self, config):
        subset = config.run_matrix(strategies=("MH",))
        totals = engine_statistics(subset)
        assert list(totals) == ["MH"]
        mh = totals["MH"]
        assert mh.evaluations == sum(
            r.result.counters.evaluations for r in subset
        )
        assert mh.evaluations >= mh.cache_hits + mh.cache_misses

    def test_objectives_finite_for_valid(self, records):
        for record in records:
            if record.result.valid:
                assert record.result.objective < float("inf")

    def test_scenario_matches_cell(self, records):
        family = families.get_family(FIGURE_FAMILY)
        for record in records:
            params = family.params(record.preset)
            assert record.family == FIGURE_FAMILY
            assert record.scenario.params == params
            assert record.scenario.current.process_count == params.n_current
            assert (
                record.scenario.existing.process_count == params.n_existing
            )

    def test_mean_helper(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestFigTenSeedTwo:
    """The laptop figures' one gap: ``fig-10`` seed 2 has no Initial
    Mapping, so AH, MH and SA are all invalid there after one
    evaluation each, and slides 15 and 17 average 2 of 3 scenarios at
    size 10 (EXPERIMENTS.md)."""

    @staticmethod
    def spec(seed):
        family = families.get_family(FIGURE_FAMILY)
        return family.build("fig-10", seed=seed).spec()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_initial_mapping_fails_on_seed_2_only(self, seed):
        spec = self.spec(seed)
        outcome = InitialMapper(spec.architecture).try_map_and_schedule(
            spec.current, base=spec.base_schedule
        )
        assert (outcome is None) == (seed == 2)

    @pytest.mark.parametrize("strategy", ["AH", "MH", "SA"])
    def test_every_strategy_reports_one_evaluation(self, strategy):
        result = make_strategy(strategy).design(self.spec(2))
        assert not result.valid
        assert result.counters == EngineCounters(1, 0, 0)


class TestDeviation:
    def test_basic(self):
        assert deviation(20.0, 10.0) == 100.0

    def test_floor_denominator(self):
        assert deviation(5.0, 0.0) == 500.0

    def test_negative_possible(self):
        assert deviation(5.0, 10.0) == -50.0


class TestFigQuality:
    def test_rows(self, config, records):
        rows = fig_quality(config, records)
        assert [r.size for r in rows] == [5, 10]
        for row in rows:
            assert isinstance(row, QualityRow)
            assert row.scenarios >= 1
            # MH never worse than SA+descent by more than noise; AH at
            # least as bad as MH on average.
            assert row.avg_deviation_mh >= -1e-6
            assert row.avg_deviation_ah >= row.avg_deviation_mh - 1e-6

    def test_render(self, config, records):
        out = render_quality(fig_quality(config, records))
        assert "AH dev %" in out
        assert "slide 15" in out


class TestFigRuntime:
    # Wall-clock ordering with headroom: these tiny cells finish in
    # tens of milliseconds, where one GC pause or a loaded machine can
    # inflate a single strategy run several-fold.  A structural
    # inversion (MH slower than SA) overshoots this bound by far.
    NOISE = 2.0
    EPS = 0.01

    def test_rows(self, config, records):
        rows = fig_runtime(config, records)
        for row in rows:
            assert isinstance(row, RuntimeRow)
            assert 0 <= row.avg_runtime_ah
            assert (
                row.avg_runtime_ah
                <= row.avg_runtime_mh * self.NOISE + self.EPS
            )
            assert (
                row.avg_runtime_mh
                <= row.avg_runtime_sa * self.NOISE + self.EPS
            )

    def test_render(self, config, records):
        out = render_runtime(fig_runtime(config, records))
        assert "SA [s]" in out


class TestFigFuture:
    def test_rows(self, config, records):
        rows = fig_future(config, records)
        assert rows
        for row in rows:
            assert isinstance(row, FutureRow)
            assert 0.0 <= row.pct_mapped_ah <= 100.0
            assert 0.0 <= row.pct_mapped_mh <= 100.0
            assert row.future_apps == (
                row.scenarios * config.future_apps_per_scenario
            )

    def test_mh_fits_at_least_as_many_futures_as_ah(self, config, records):
        """Slide 17's claim: the future-aware design accepts at least
        as many future applications as the ad-hoc one."""
        for row in fig_future(config, records):
            assert row.pct_mapped_mh >= row.pct_mapped_ah

    def test_render(self, config, records):
        out = render_future(fig_future(config, records))
        assert "MH mapped %" in out

    def test_reuses_records(self, config, records):
        """The AH+MH run of ``fig-future`` alone and the records ``all``
        shares with slides 15-16 give the same rows."""
        assert fig_future(config) == fig_future(config, records)


class TestPaperPreset:
    def test_paper_scale_values(self):
        paper = ExperimentConfig.paper()
        assert [preset_size(p) for p in paper.presets] == [
            40, 80, 160, 240, 320,
        ]
        family = families.get_family(FIGURE_FAMILY)
        for preset in paper.presets:
            assert family.params(preset).n_existing == 400
            assert family.params(preset).n_nodes == 10
        assert paper.n_future_processes == 80

    @pytest.mark.parametrize(
        "preset,params",
        [
            (f"fig-{n}", ScenarioParams(n_existing=60, n_current=n))
            for n in (10, 20, 30)
        ]
        + [
            (
                f"paper-{n}",
                ScenarioParams(
                    n_nodes=10, hyperperiod=4800, slot_length=4,
                    slot_capacity=16, n_existing=400, n_current=n,
                ),
            )
            for n in (40, 80, 160, 240, 320)
        ],
    )
    def test_figure_presets_are_the_paper_generator_cells(
        self, preset, params
    ):
        """Each figure preset is the cell the figures always ran: the
        default scenario shape (laptop) or the paper's 10-node platform
        with 400 existing processes, at the preset's current size."""
        assert families.get_family(FIGURE_FAMILY).params(preset) == params

    def test_laptop_defaults(self):
        config = ExperimentConfig()
        assert config.presets == ("fig-10", "fig-20", "fig-30")
        family = families.get_family(FIGURE_FAMILY)
        assert family.params("fig-20") == family.params("medium")
        assert family.smallest_preset == "tiny"
