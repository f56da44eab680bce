"""Unit tests for the six-step MPMCS pipeline (paper Section III)."""

import pytest

from repro.core.pipeline import MPMCSSolver, find_mpmcs
from repro.exceptions import AnalysisError
from repro.fta.builder import FaultTreeBuilder
from repro.maxsat import HittingSetEngine, RC2Engine
from repro.workloads.library import (
    fire_protection_system,
    pressure_tank,
    redundant_power_supply,
    three_motor_system,
)


class TestPaperExample:
    """End-to-end reproduction of the paper's worked example (Fig. 1 / Fig. 2)."""

    def test_fps_mpmcs_is_x1_x2(self, fps_tree):
        result = MPMCSSolver().solve(fps_tree)
        assert result.events == ("x1", "x2")

    def test_fps_probability_is_0_02(self, fps_tree):
        result = MPMCSSolver().solve(fps_tree)
        assert result.probability == pytest.approx(0.02)

    def test_fps_cost_is_sum_of_table_weights(self, fps_tree):
        result = MPMCSSolver().solve(fps_tree)
        assert result.cost == pytest.approx(1.60944 + 2.30259, abs=1e-4)
        assert result.weights["x1"] == pytest.approx(1.60944, abs=1e-4)
        assert result.weights["x2"] == pytest.approx(2.30259, abs=1e-4)

    def test_result_metadata(self, fps_tree):
        result = MPMCSSolver().solve(fps_tree)
        assert result.tree_name == "fire-protection-system"
        assert result.size == 2
        assert result.num_soft == 7
        assert result.num_vars > 7
        assert result.engine
        assert result.total_time >= result.solve_time >= 0.0
        # Every module of Fig. 1 solves by rule.
        assert result.sat_calls == 0

    def test_to_dict_round_trips_key_fields(self, fps_tree):
        result = MPMCSSolver().solve(fps_tree)
        data = result.to_dict()
        assert data["mpmcs"] == ["x1", "x2"]
        assert data["probability"] == pytest.approx(0.02)
        assert data["instance"]["soft_clauses"] == 7


class TestSingleEngineConfigurations:
    @pytest.mark.parametrize(
        "engine_factory",
        [RC2Engine, HittingSetEngine],
        ids=["rc2", "hitting-set"],
    )
    def test_every_engine_reproduces_the_example(self, fps_tree, engine_factory):
        result = MPMCSSolver(single_engine=engine_factory()).solve(fps_tree)
        assert result.events == ("x1", "x2")
        assert result.probability == pytest.approx(0.02)

    def test_single_engine_reports_its_sat_calls(self, fps_tree):
        result = MPMCSSolver(single_engine=RC2Engine()).solve(fps_tree)
        assert result.sat_calls > 0
        assert result.engine == "rc2"


class TestOtherLibraryTrees:
    def test_pressure_tank_mpmcs(self):
        result = MPMCSSolver().solve(pressure_tank())
        # Dominant scenario: relief valve fails together with the pressure
        # switch sticking (1e-3 * 5e-3), beating the welded-contact variant and
        # the operator-error path.
        assert result.events == ("pressure_switch_stuck", "relief_valve_fails")
        assert result.probability == pytest.approx(5e-6)

    def test_voting_tree_mpmcs(self):
        result = MPMCSSolver().solve(redundant_power_supply())
        # Cheapest pair of feeders failing through their breakers (0.004^2),
        # which beats the bus bar SPOF (1e-5).
        assert result.probability == pytest.approx(0.004 * 0.004)
        assert len(result.events) == 2

    def test_shared_events_tree_mpmcs(self):
        result = MPMCSSolver().solve(three_motor_system())
        # The shared control circuit failure (0.01) dominates motor triples
        # (0.02^3) and the power supply (0.005)... the power supply is actually
        # rarer, so control_circuit wins.
        assert result.events == ("control_circuit",)
        assert result.probability == pytest.approx(0.01)


class TestEdgeCases:
    def test_single_event_tree(self):
        tree = FaultTreeBuilder("single").basic_event("only", 0.3).top("only").build()
        result = find_mpmcs(tree)
        assert result.events == ("only",)
        assert result.probability == pytest.approx(0.3)

    def test_pure_and_tree_requires_all_events(self):
        tree = (
            FaultTreeBuilder("and-only")
            .basic_event("a", 0.5)
            .basic_event("b", 0.4)
            .basic_event("c", 0.3)
            .and_gate("top", ["a", "b", "c"])
            .top("top")
            .build()
        )
        result = find_mpmcs(tree)
        assert result.events == ("a", "b", "c")
        assert result.probability == pytest.approx(0.5 * 0.4 * 0.3)

    def test_pure_or_tree_picks_most_probable_event(self):
        tree = (
            FaultTreeBuilder("or-only")
            .basic_event("a", 0.01)
            .basic_event("b", 0.2)
            .basic_event("c", 0.05)
            .or_gate("top", ["a", "b", "c"])
            .top("top")
            .build()
        )
        result = find_mpmcs(tree)
        assert result.events == ("b",)
        assert result.probability == pytest.approx(0.2)

    def test_probability_one_event_dominates(self):
        tree = (
            FaultTreeBuilder("certain")
            .basic_event("certain", 1.0)
            .basic_event("rare", 0.001)
            .or_gate("top", ["certain", "rare"])
            .top("top")
            .build()
        )
        result = find_mpmcs(tree)
        assert result.events == ("certain",)
        assert result.probability == pytest.approx(1.0)

    def test_voting_gate_direct(self):
        tree = (
            FaultTreeBuilder("vote")
            .basic_event("a", 0.1)
            .basic_event("b", 0.2)
            .basic_event("c", 0.3)
            .basic_event("d", 0.4)
            .voting_gate("top", 3, ["a", "b", "c", "d"])
            .top("top")
            .build()
        )
        result = find_mpmcs(tree)
        assert result.events == ("b", "c", "d")
        assert result.probability == pytest.approx(0.2 * 0.3 * 0.4)

    def test_find_mpmcs_kwargs_passthrough(self, fps_tree):
        result = find_mpmcs(fps_tree, single_engine=RC2Engine())
        assert result.events == ("x1", "x2")


class TestVerification:
    def test_verification_rejects_wrong_models(self, fps_tree, monkeypatch):
        """Corrupting the MaxSAT answer must trip the minimal-cut-set check."""
        from repro.maxsat.result import MaxSATResult, MaxSATStatus

        solver = MPMCSSolver(single_engine=RC2Engine())
        original = RC2Engine.solve

        def corrupted(self, instance):
            result = original(self, instance)
            # Flip every event variable to true: a (non-minimal) super-cut-set.
            model = dict(result.model)
            for var in range(1, instance.num_vars + 1):
                model[var] = True
            return MaxSATResult(
                status=MaxSATStatus.OPTIMUM,
                model=model,
                cost=result.cost,
                float_cost=result.float_cost,
                engine=result.engine,
            )

        monkeypatch.setattr(RC2Engine, "solve", corrupted)
        with pytest.raises(AnalysisError, match="not a minimal cut set"):
            solver.solve(fps_tree)
