"""Tests for the design flow plumbing: spec, engine, results, registry."""

import pytest

from repro.core.adhoc import AdHocStrategy
from repro.core.future import DiscreteDistribution, FutureCharacterization
from repro.core.mapping_heuristic import MappingHeuristic
from repro.core.simulated_annealing import SimulatedAnnealing
from repro.core.strategy import (
    DesignResult,
    DesignSpec,
    design_application,
    fits_future_application,
    make_strategy,
)
from repro.core.transformations import CandidateDesign
from repro.engine import EvaluationEngine
from repro.model.mapping import Mapping
from repro.sched.priorities import hcp_priorities
from repro.sched.schedule import SystemSchedule



@pytest.fixture
def future() -> FutureCharacterization:
    return FutureCharacterization(
        t_min=40,
        t_need=20,
        b_need=4,
        wcet_distribution=DiscreteDistribution((10,), (1.0,)),
        message_size_distribution=DiscreteDistribution((2,), (1.0,)),
    )


@pytest.fixture
def spec(arch2, chain_app, future) -> DesignSpec:
    return DesignSpec(architecture=arch2, current=chain_app, future=future)


class TestDesignSpec:
    def test_effective_horizon_from_app(self, spec):
        assert spec.effective_horizon() == 80

    def test_effective_horizon_from_base(self, arch2, chain_app, future):
        base = SystemSchedule(arch2, 160)
        s = DesignSpec(
            architecture=arch2,
            current=chain_app,
            future=future,
            base_schedule=base,
        )
        assert s.effective_horizon() == 160

    def test_effective_horizon_explicit(self, arch2, chain_app, future):
        s = DesignSpec(
            architecture=arch2, current=chain_app, future=future, horizon=240
        )
        assert s.effective_horizon() == 240


class TestEngineOnSpec:
    def test_valid_candidate_evaluated(self, spec, arch2, chain_app):
        evaluator = EvaluationEngine(spec)
        design = CandidateDesign(
            Mapping(chain_app, arch2, {p.id: "N1" for p in chain_app.processes}),
            hcp_priorities(chain_app, arch2.bus),
        )
        out = evaluator.evaluate(design)
        assert out is not None
        assert out.objective >= 0
        assert evaluator.counters().evaluations == 1

    def test_invalid_candidate_returns_none(self, arch2, chain_app, future):
        base = SystemSchedule(arch2, 80)
        base.place_process("wall1", 0, "N1", 0, 75, frozen=True)
        base.place_process("wall2", 0, "N2", 0, 75, frozen=True)
        spec = DesignSpec(
            architecture=arch2,
            current=chain_app,
            future=future,
            base_schedule=base,
        )
        evaluator = EvaluationEngine(spec)
        design = CandidateDesign(
            Mapping(chain_app, arch2, {p.id: "N1" for p in chain_app.processes}),
            hcp_priorities(chain_app, arch2.bus),
        )
        assert evaluator.evaluate(design) is None
        assert evaluator.counters().evaluations == 1


class TestDesignResult:
    def test_invalid_objective_is_inf(self):
        assert DesignResult("AH", valid=False).objective == float("inf")


class TestRegistry:
    def test_make_strategy_types(self):
        assert isinstance(make_strategy("AH"), AdHocStrategy)
        assert isinstance(make_strategy("mh"), MappingHeuristic)
        assert isinstance(make_strategy("SA"), SimulatedAnnealing)

    def test_kwargs_forwarded(self):
        sa = make_strategy("SA", iterations=7)
        assert sa.iterations == 7

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("GA")

    def test_design_application_runs(self, spec):
        result = design_application(spec, "AH")
        assert result.valid
        assert result.strategy == "AH"
        assert result.runtime_seconds > 0


class TestTimedDecorator:
    def test_wraps_preserves_introspection(self):
        # functools.wraps must keep the full metadata, not just
        # __doc__/__name__ as the original hand-rolled decorator did.
        for cls in (AdHocStrategy, MappingHeuristic, SimulatedAnnealing):
            design = cls.design
            assert design.__name__ == "design"
            assert design.__qualname__ == f"{cls.__name__}.design"
            assert design.__module__ == cls.__module__
            assert design.__doc__
            assert hasattr(design, "__wrapped__")


class TestFitsFutureApplication:
    def test_fits_on_empty_system(self, arch2, chain_app):
        base = SystemSchedule(arch2, 80)
        assert fits_future_application(base, chain_app, arch2)

    def test_does_not_fit_on_full_system(self, arch2, chain_app):
        base = SystemSchedule(arch2, 80)
        base.place_process("w1", 0, "N1", 0, 78, frozen=True)
        base.place_process("w2", 0, "N2", 0, 78, frozen=True)
        assert not fits_future_application(base, chain_app, arch2)

    def test_does_not_mutate_base(self, arch2, chain_app):
        base = SystemSchedule(arch2, 80)
        fits_future_application(base, chain_app, arch2)
        assert len(list(base.all_entries())) == 0
