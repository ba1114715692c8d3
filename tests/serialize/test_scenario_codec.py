"""Round-trip tests for scenario serialization."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gen.families import family_names, get_family
from repro.gen.scenario import ScenarioParams, build_scenario
from repro.serialize import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_params_from_dict,
    scenario_params_to_dict,
    scenario_to_dict,
)
from repro.utils.errors import InvalidModelError, ReproError


@pytest.fixture(scope="module")
def scenario():
    params = ScenarioParams(
        n_nodes=3, hyperperiod=2400, n_existing=10, n_current=5
    )
    return build_scenario(params, seed=2)


class TestParamsCodec:
    def test_round_trip(self, scenario):
        payload = scenario_params_to_dict(scenario.params)
        assert scenario_params_from_dict(payload) == scenario.params

    def test_json_safe(self, scenario):
        json.dumps(scenario_params_to_dict(scenario.params))

    def test_wrong_kind_rejected(self):
        with pytest.raises(InvalidModelError):
            scenario_params_from_dict({"kind": "scenario"})

    def test_tuples_restored_after_json(self, scenario):
        # Through a real JSON round trip, tuples become lists.
        payload = json.loads(
            json.dumps(scenario_params_to_dict(scenario.params))
        )
        rebuilt = scenario_params_from_dict(payload)
        assert isinstance(rebuilt.period_divisors, tuple)
        assert rebuilt == scenario.params


class TestScenarioCodec:
    def test_round_trip_components(self, scenario):
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        assert rebuilt.seed == scenario.seed
        assert rebuilt.params == scenario.params
        assert rebuilt.future == scenario.future
        assert rebuilt.existing.process_count == scenario.existing.process_count
        assert rebuilt.current.process_count == scenario.current.process_count
        assert rebuilt.architecture.node_ids == scenario.architecture.node_ids

    def test_base_schedule_preserved(self, scenario):
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        old = sorted(
            (e.process_id, e.instance, e.node_id, e.start, e.end)
            for e in scenario.base_schedule.all_entries()
        )
        new = sorted(
            (e.process_id, e.instance, e.node_id, e.start, e.end)
            for e in rebuilt.base_schedule.all_entries()
        )
        assert old == new
        assert all(e.frozen for e in rebuilt.base_schedule.all_entries())

    def test_rebuilt_scenario_is_designable(self, scenario):
        from repro.core.strategy import design_application

        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        result = design_application(rebuilt.spec(), "AH")
        original = design_application(scenario.spec(), "AH")
        assert result.valid == original.valid
        if result.valid:
            assert result.objective == pytest.approx(original.objective)

    def test_file_round_trip(self, scenario, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        rebuilt = load_scenario(path)
        assert rebuilt.future == scenario.future

    def test_load_rejects_other_kinds(self, tmp_path):
        path = tmp_path / "not_a_scenario.json"
        path.write_text(json.dumps({"kind": "application"}))
        with pytest.raises(InvalidModelError):
            load_scenario(path)


class TestScenarioCodecFuzz:
    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(family_names()), seed=st.integers(1, 50))
    def test_json_round_trip_is_a_fixed_point(self, family, seed):
        """Any family's smallest preset at any seed survives
        dict -> JSON -> dict -> scenario -> dict unchanged."""
        scenario_family = get_family(family)
        try:
            scenario = scenario_family.build(
                scenario_family.smallest_preset, seed
            )
        except ReproError:
            assume(False)
        payload = scenario_to_dict(scenario)
        rebuilt = scenario_from_dict(json.loads(json.dumps(payload)))
        assert scenario_to_dict(rebuilt) == payload
