"""Mitigation planner: greedy baseline, exact MaxSAT planner, action ranking."""

import inspect
import itertools

import pytest

from repro.api.cache import ArtifactCache
from repro.exceptions import AnalysisError, SolverError
from repro.maxsat import MaxSATResult, MaxSATStatus, RC2Engine
from repro.scenarios import (
    HardeningAction,
    exact_plan,
    greedy_plan,
    incremental_cut_sets,
    pareto_frontier,
    plan_mitigation,
    rank_actions,
)
from repro.workloads.library import fire_protection_system, pressure_tank


def brute_force_optimum(tree, actions, budget):
    """Reference: minimal achievable MPMCS probability over all budget-feasible
    action subsets, with the cheapest witness set."""
    structure = list(incremental_cut_sets(tree, ArtifactCache()))
    best_value, best_cost, best_subset = None, None, ()
    for size in range(len(actions) + 1):
        for combo in itertools.combinations(actions, size):
            cost = sum(action.cost for action in combo)
            if cost > budget + 1e-12:
                continue
            probabilities = tree.probabilities()
            for action in combo:
                probabilities[action.event] = action.hardened_probability(
                    probabilities[action.event]
                )
            value = max(
                _product(cut_set, probabilities) for cut_set in structure
            )
            key = (value, cost)
            if best_value is None or key < (best_value, best_cost):
                best_value, best_cost = value, cost
                best_subset = tuple(sorted(action.event for action in combo))
    return best_value, best_subset


def _product(cut_set, probabilities):
    out = 1.0
    for name in cut_set:
        out *= probabilities[name]
    return out


FPS_ACTIONS = [
    HardeningAction("x1", cost=2.0),
    HardeningAction("x2", cost=2.0),
    HardeningAction("x4", cost=1.0),
    HardeningAction("x5", cost=1.0),
]


class TestExactPlanner:
    @pytest.mark.parametrize("budget", [0.0, 1.0, 2.0, 3.0, 4.0, 6.0])
    def test_matches_brute_force_on_fig1(self, budget):
        tree = fire_protection_system()
        plan = exact_plan(tree, FPS_ACTIONS, budget)
        optimum, _ = brute_force_optimum(tree, FPS_ACTIONS, budget)
        assert plan.new_mpmcs_probability == pytest.approx(optimum, rel=1e-6)
        assert plan.total_cost <= budget + 1e-9

    def test_known_optimal_set_on_fig1(self):
        # With budget 3 the optimum is 0.002: harden one sensor (cost 2,
        # {x1,x2} -> 0.002) plus x5 (cost 1, kills both {x5,*} cut sets);
        # {x4} = 0.002 remains the floor.  Hardening x4 instead of x5 would
        # leave {x5, x6} at 0.005.
        plan = exact_plan(fire_protection_system(), FPS_ACTIONS, budget=3.0)
        assert plan.new_mpmcs_probability == pytest.approx(0.002)
        assert "x5" in plan.events
        assert "x1" in plan.events or "x2" in plan.events
        assert plan.total_cost == pytest.approx(3.0)

    def test_zero_budget_selects_nothing(self):
        plan = exact_plan(fire_protection_system(), FPS_ACTIONS, budget=0.0)
        assert plan.selected == ()
        assert plan.new_mpmcs_probability == pytest.approx(0.02)

    def test_unlimited_budget_reaches_global_floor(self):
        tree = fire_protection_system()
        plan = exact_plan(tree, FPS_ACTIONS, budget=100.0)
        optimum, _ = brute_force_optimum(tree, FPS_ACTIONS, budget=100.0)
        assert plan.new_mpmcs_probability == pytest.approx(optimum, rel=1e-6)

    def test_exact_beats_greedy_trap(self):
        # Both x1 and x2 attack the dominant cut set {x1, x2}.  Greedy buys
        # the *cheap shallow* fix first (x2: reduction 0.008 per unit cost
        # beats x1's 0.0074), after which the leftover budget buys nothing
        # useful and the MPMCS stalls at 0.012.  The exact planner spends the
        # whole budget on the deep x1 fix and reaches 0.0052.
        tree = fire_protection_system()
        actions = [
            HardeningAction("x1", cost=2.0, factor=0.26),
            HardeningAction("x2", cost=1.0, factor=0.6),
            HardeningAction("x5", cost=1.0, factor=0.1),
        ]
        greedy = greedy_plan(tree, actions, budget=2.0)
        exact = exact_plan(tree, actions, budget=2.0)
        assert greedy.new_mpmcs_probability == pytest.approx(0.012)
        assert exact.new_mpmcs_probability == pytest.approx(0.0052)
        assert exact.events == ("x1",)

    def test_works_on_pressure_tank(self):
        tree = pressure_tank()
        actions = [
            HardeningAction("relief_valve_fails", cost=2.0),
            HardeningAction("pressure_switch_stuck", cost=1.0),
            HardeningAction("operator_misses_gauge", cost=1.0),
        ]
        plan = exact_plan(tree, actions, budget=2.0)
        optimum, _ = brute_force_optimum(tree, actions, budget=2.0)
        assert plan.new_mpmcs_probability == pytest.approx(optimum, rel=1e-6)

    def test_inconclusive_probe_raises(self, monkeypatch):
        # An UNKNOWN probe is no evidence that a threshold is out of reach:
        # reading it as infeasible would quietly return a worse plan.
        def inconclusive(self, instance):
            return MaxSATResult(status=MaxSATStatus.UNKNOWN, engine=self.name)

        monkeypatch.setattr(RC2Engine, "solve", inconclusive)
        with pytest.raises(SolverError, match="no conclusion"):
            exact_plan(fire_protection_system(), FPS_ACTIONS, budget=3.0)

    def test_unsatisfiable_probe_reads_as_out_of_reach(self, monkeypatch):
        # A proof that no selection reaches a threshold keeps the base plan.
        def unsatisfiable(self, instance):
            return MaxSATResult(status=MaxSATStatus.UNSATISFIABLE, engine=self.name)

        monkeypatch.setattr(RC2Engine, "solve", unsatisfiable)
        plan = exact_plan(fire_protection_system(), FPS_ACTIONS, budget=3.0)
        assert plan.selected == ()
        assert plan.new_mpmcs_probability == plan.base_mpmcs_probability

    @pytest.mark.parametrize("planner", [exact_plan, pareto_frontier], ids=lambda f: f.__name__)
    def test_planner_takes_no_solver(self, planner):
        # Every probe solves with RC2; there is no portfolio to pass in.
        assert "solver" not in inspect.signature(planner).parameters


class TestGreedyPlanner:
    def test_respects_budget(self):
        plan = greedy_plan(fire_protection_system(), FPS_ACTIONS, budget=2.5)
        assert plan.total_cost <= 2.5

    def test_top_event_objective(self):
        plan = greedy_plan(
            fire_protection_system(), FPS_ACTIONS, budget=2.0, objective="top_event"
        )
        assert plan.new_top_event < plan.base_top_event

    def test_unknown_objective_rejected(self):
        with pytest.raises(AnalysisError):
            greedy_plan(fire_protection_system(), FPS_ACTIONS, budget=1.0, objective="bogus")

    def test_plan_mitigation_dispatch(self):
        greedy = plan_mitigation(
            fire_protection_system(), FPS_ACTIONS, 3.0, method="greedy"
        )
        exact = plan_mitigation(
            fire_protection_system(), FPS_ACTIONS, 3.0, method="exact"
        )
        assert greedy.method == "greedy" and exact.method == "maxsat"
        assert greedy.new_mpmcs_probability == pytest.approx(exact.new_mpmcs_probability)
        with pytest.raises(AnalysisError):
            plan_mitigation(fire_protection_system(), FPS_ACTIONS, 3.0, method="simplex")


class TestValidationAndRanking:
    def test_duplicate_actions_rejected(self):
        with pytest.raises(AnalysisError):
            greedy_plan(
                fire_protection_system(),
                [HardeningAction("x1", cost=1.0), HardeningAction("x1", cost=2.0)],
                budget=1.0,
            )

    def test_unknown_event_rejected(self):
        with pytest.raises(AnalysisError):
            exact_plan(
                fire_protection_system(), [HardeningAction("nope", cost=1.0)], budget=1.0
            )

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(AnalysisError):
            HardeningAction("x1", cost=0.0)

    def test_rank_actions_sorted_by_reduction(self):
        impacts = rank_actions(fire_protection_system(), FPS_ACTIONS)
        reductions = [impact.top_event_reduction for impact in impacts]
        assert reductions == sorted(reductions, reverse=True)
        # hardening a detection sensor dominates on the Fig. 1 tree
        assert impacts[0].action.event in ("x1", "x2")

    def test_plan_document_shape(self):
        plan = exact_plan(fire_protection_system(), FPS_ACTIONS, budget=3.0)
        document = plan.to_dict()
        assert document["method"] == "maxsat"
        assert document["base_mpmcs"] == ["x1", "x2"]
        assert document["total_cost"] == pytest.approx(3.0)


class TestPlannerEdgeCases:
    """Degenerate inputs must return the base plan — no crash, no spend."""

    def _assert_base_plan(self, plan):
        assert plan.selected == ()
        assert plan.total_cost == 0.0
        assert plan.new_mpmcs_probability == pytest.approx(plan.base_mpmcs_probability)
        assert plan.new_mpmcs == plan.base_mpmcs
        assert plan.new_top_event == pytest.approx(plan.base_top_event)

    def test_empty_action_set(self):
        tree = fire_protection_system()
        self._assert_base_plan(greedy_plan(tree, [], budget=10.0))
        self._assert_base_plan(exact_plan(tree, [], budget=10.0))

    def test_zero_effect_actions_are_never_bought(self):
        # factor = 1 - 1e-12: the weight delta rounds to 0 at the exact
        # planner's default precision (1e-12 * 1e6 << 1), and the float
        # reduction (~1e-12 relative) is below the greedy tolerance.  Buying
        # such an action would spend budget for no measurable risk reduction.
        tree = fire_protection_system()
        actions = [
            HardeningAction("x1", cost=1.0, factor=1.0 - 1e-12),
            HardeningAction("x5", cost=1.0, factor=1.0 - 1e-12),
        ]
        self._assert_base_plan(greedy_plan(tree, actions, budget=10.0))
        self._assert_base_plan(exact_plan(tree, actions, budget=10.0))

    def test_budget_below_cheapest_action(self):
        tree = fire_protection_system()
        self._assert_base_plan(greedy_plan(tree, FPS_ACTIONS, budget=0.5))
        self._assert_base_plan(exact_plan(tree, FPS_ACTIONS, budget=0.5))
