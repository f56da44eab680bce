"""Pareto frontier: exact brute-force agreement, endpoints, greedy fallback."""

import itertools

import pytest

from repro.api.cache import ArtifactCache
from repro.exceptions import AnalysisError, SolverError
from repro.maxsat import MaxSATResult, MaxSATStatus, RC2Engine
from repro.scenarios import (
    HardeningAction,
    exact_plan,
    incremental_cut_sets,
    pareto_frontier,
)
from repro.scenarios.planner import _MAX_THRESHOLD_CANDIDATES  # noqa: F401 - documented guard
from repro.workloads.library import fire_protection_system, pressure_tank


def brute_force_frontier(tree, actions):
    """Reference: the Pareto set over ALL action subsets, by float evaluation."""
    structure = list(incremental_cut_sets(tree, ArtifactCache()))

    def mpmcs_under(combo):
        probabilities = tree.probabilities()
        for action in combo:
            probabilities[action.event] = action.hardened_probability(
                probabilities[action.event]
            )
        return max(
            _product(cut_set, probabilities) for cut_set in structure
        )

    candidates = []
    for size in range(len(actions) + 1):
        for combo in itertools.combinations(actions, size):
            candidates.append(
                (sum(action.cost for action in combo), mpmcs_under(combo))
            )
    candidates.sort()
    frontier = []
    for cost, value in candidates:
        # Mirror the library's dominance rule: an "improvement" within float
        # noise of the previous point (identical bottleneck cut set up to
        # rounding) is a tie, not a frontier step.
        if not frontier or value < frontier[-1][1] * (1.0 - 1e-9):
            frontier.append((cost, value))
    return frontier


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


class TestExactFrontier:
    @pytest.mark.parametrize("method", ["auto", "exact"])
    def test_inconclusive_probe_raises(self, monkeypatch, method):
        # "auto" falls back to greedy only when the threshold guard trips;
        # an inconclusive solve is an error, not a reason to approximate.
        def inconclusive(self, instance):
            return MaxSATResult(status=MaxSATStatus.UNKNOWN, engine=self.name)

        monkeypatch.setattr(RC2Engine, "solve", inconclusive)
        with pytest.raises(SolverError, match="no conclusion"):
            pareto_frontier(fire_protection_system(), FPS_ACTIONS, method=method)

    def test_matches_brute_force_on_fig1(self):
        tree = fire_protection_system()
        frontier = pareto_frontier(tree, FPS_ACTIONS, method="exact")
        expected = brute_force_frontier(tree, FPS_ACTIONS)
        assert len(frontier.points) == len(expected)
        for point, (cost, value) in zip(frontier.points, expected):
            assert point.cost == pytest.approx(cost)
            assert point.mpmcs_probability == pytest.approx(value, rel=1e-6)

    def test_matches_brute_force_with_heterogeneous_effects(self):
        tree = fire_protection_system()
        actions = [
            HardeningAction("x1", cost=2.0, factor=0.26),
            HardeningAction("x2", cost=1.0, factor=0.6),
            HardeningAction("x5", cost=1.0, factor=0.1),
            HardeningAction("x4", cost=3.0, probability=1e-5),
        ]
        frontier = pareto_frontier(tree, actions, method="exact")
        expected = brute_force_frontier(tree, actions)
        assert [
            (point.cost, pytest.approx(point.mpmcs_probability, rel=1e-6))
            for point in frontier.points
        ] == [(cost, pytest.approx(value, rel=1e-6)) for cost, value in expected]

    def test_matches_brute_force_on_pressure_tank(self):
        tree = pressure_tank()
        actions = [
            HardeningAction("relief_valve_fails", cost=2.0),
            HardeningAction("pressure_switch_stuck", cost=1.0),
            HardeningAction("operator_misses_gauge", cost=1.5),
        ]
        frontier = pareto_frontier(tree, actions, method="exact")
        expected = brute_force_frontier(tree, actions)
        assert len(frontier.points) == len(expected)
        for point, (cost, value) in zip(frontier.points, expected):
            assert point.cost == pytest.approx(cost)
            assert point.mpmcs_probability == pytest.approx(value, rel=1e-6)

    def test_endpoints_are_base_and_unconstrained_optimum(self):
        tree = fire_protection_system()
        frontier = pareto_frontier(tree, FPS_ACTIONS, method="exact")
        first, last = frontier.points[0], frontier.points[-1]
        assert first.cost == 0
        assert first.selected == ()
        assert first.mpmcs_probability == frontier.base_mpmcs_probability
        assert first.mpmcs == frontier.base_mpmcs
        unconstrained = exact_plan(
            tree, FPS_ACTIONS, budget=sum(action.cost for action in FPS_ACTIONS)
        )
        assert last.mpmcs_probability == pytest.approx(
            unconstrained.new_mpmcs_probability
        )

    def test_points_are_strictly_pareto_ordered(self):
        frontier = pareto_frontier(fire_protection_system(), FPS_ACTIONS, method="exact")
        costs = [point.cost for point in frontier.points]
        risks = [point.mpmcs_probability for point in frontier.points]
        assert costs == sorted(costs)
        assert all(a < b for a, b in zip(risks[1:], risks))  # strictly decreasing

    def test_points_carry_exact_top_event(self):
        tree = fire_protection_system()
        frontier = pareto_frontier(tree, FPS_ACTIONS, method="exact")
        tops = [point.top_event for point in frontier.points]
        # hardening can only lower P(top), and the base point leads
        assert tops[0] == frontier.base_top_event
        assert tops == sorted(tops, reverse=True)

    def test_best_within_budget(self):
        frontier = pareto_frontier(fire_protection_system(), FPS_ACTIONS, method="exact")
        assert frontier.best_within(0.0).selected == ()
        whole = frontier.best_within(sum(a.cost for a in FPS_ACTIONS))
        assert whole == frontier.points[-1]
        with pytest.raises(AnalysisError):
            frontier.best_within(-1.0)

    def test_budget_point_consistency_with_exact_plan(self):
        tree = fire_protection_system()
        frontier = pareto_frontier(tree, FPS_ACTIONS, method="exact")
        for budget in (0.0, 1.0, 2.0, 3.0, 6.0):
            plan = exact_plan(tree, FPS_ACTIONS, budget)
            assert frontier.best_within(budget).mpmcs_probability == pytest.approx(
                plan.new_mpmcs_probability
            )

    def test_to_dict_shape(self):
        frontier = pareto_frontier(fire_protection_system(), FPS_ACTIONS, method="exact")
        document = frontier.to_dict()
        assert document["method"] == "exact"
        assert document["base_mpmcs"] == ["x1", "x2"]
        assert document["points"][0]["cost"] == 0
        assert all("top_event" in point for point in document["points"])


class TestGreedyAndAuto:
    def test_greedy_frontier_is_pareto_ordered_and_anchored(self):
        frontier = pareto_frontier(
            fire_protection_system(), FPS_ACTIONS, method="greedy"
        )
        assert frontier.method == "greedy"
        assert frontier.points[0].cost == 0
        risks = [point.mpmcs_probability for point in frontier.points]
        assert all(a < b for a, b in zip(risks[1:], risks))

    def test_auto_prefers_exact_on_small_models(self):
        frontier = pareto_frontier(fire_protection_system(), FPS_ACTIONS)
        assert frontier.method == "exact"

    def test_auto_falls_back_to_greedy_when_guard_trips(self, monkeypatch):
        import repro.scenarios.planner as planner

        monkeypatch.setattr(planner, "_MAX_THRESHOLD_CANDIDATES", 1)
        frontier = pareto_frontier(fire_protection_system(), FPS_ACTIONS, method="auto")
        assert frontier.method == "greedy"
        with pytest.raises(AnalysisError, match="candidate thresholds"):
            pareto_frontier(fire_protection_system(), FPS_ACTIONS, method="exact")

    def test_empty_action_set_yields_base_only(self):
        frontier = pareto_frontier(fire_protection_system(), [])
        assert len(frontier) == 1
        assert frontier.points[0].cost == 0
        assert frontier.points[0].mpmcs_probability == frontier.base_mpmcs_probability

    def test_unknown_method_rejected(self):
        with pytest.raises(AnalysisError, match="unknown frontier method"):
            pareto_frontier(fire_protection_system(), FPS_ACTIONS, method="simplex")


class TestGreedyFrontierSingletons:
    def test_cheap_deferred_action_is_still_affordable_on_the_frontier(self):
        """The unconstrained greedy order buys the expensive high-impact
        action first; the frontier must still offer the cheap singleton to a
        tight budget (regression: best_within used to return the base)."""
        from repro.fta.builder import FaultTreeBuilder

        tree = (
            FaultTreeBuilder("two-sensors")
            .basic_event("a", 0.2)
            .basic_event("b", 0.1)
            .and_gate("top", ["a", "b"])
            .top("top")
            .build()
        )

        actions = [
            HardeningAction("a", cost=10.0, factor=0.001),
            HardeningAction("b", cost=1.0, factor=0.99),
        ]
        frontier = pareto_frontier(tree, actions, method="greedy")
        best = frontier.best_within(1.0)
        assert best.events == ("b",)
        assert best.mpmcs_probability == pytest.approx(0.2 * 0.1 * 0.99)
