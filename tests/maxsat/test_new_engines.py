"""Unit tests for the implicit hitting set MaxSAT engine."""

import itertools

import pytest

from repro.exceptions import BudgetExceededError
from repro.maxsat import (
    BruteForceEngine,
    HittingSetEngine,
    MaxSATStatus,
    WPMaxSATInstance,
)
from repro.maxsat import hitting_set
from repro.maxsat.hitting_set import minimum_cost_hitting_set

NEW_ENGINES = [HittingSetEngine]
ENGINE_IDS = ["hitting-set"]


@pytest.fixture(params=NEW_ENGINES, ids=ENGINE_IDS)
def engine(request):
    return request.param()


def simple_instance():
    """Hard: (x1 | x2); soft: prefer both false, x1 cheaper to violate."""
    instance = WPMaxSATInstance(precision=1)
    instance.add_hard([1, 2])
    instance.add_soft([-1], 2, label="not-x1")
    instance.add_soft([-2], 5, label="not-x2")
    return instance


def chain_instance():
    """x1 -> x2 -> x3 with the cheapest chain break at x1."""
    instance = WPMaxSATInstance(precision=1)
    instance.add_hard([1])
    instance.add_hard([-1, 2])
    instance.add_hard([-2, 3])
    instance.add_soft([-1], 7)
    instance.add_soft([-2], 3)
    instance.add_soft([-3], 4)
    return instance


class TestNewEnginesOnCraftedInstances:
    def test_simple_instance(self, engine):
        result = engine.solve(simple_instance())
        assert result.status is MaxSATStatus.OPTIMUM
        assert result.cost == 2
        assert result.model[1] is True
        assert result.model[2] is False

    def test_chain_instance_pays_every_forced_literal(self, engine):
        result = engine.solve(chain_instance())
        assert result.status is MaxSATStatus.OPTIMUM
        assert result.cost == 7 + 3 + 4

    def test_zero_cost_when_all_soft_satisfiable(self, engine):
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1, 2])
        instance.add_soft([1], 3)
        instance.add_soft([2, 3], 4)
        result = engine.solve(instance)
        assert result.status is MaxSATStatus.OPTIMUM
        assert result.cost == 0

    def test_unsatisfiable_hard_clauses(self, engine):
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1])
        instance.add_hard([-1])
        instance.add_soft([2], 1)
        result = engine.solve(instance)
        assert result.status is MaxSATStatus.UNSATISFIABLE

    def test_non_unit_soft_clauses(self, engine):
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([-1, -2])
        instance.add_soft([1, 3], 2)
        instance.add_soft([2, -3], 3)
        reference = BruteForceEngine().solve(instance.copy())
        result = engine.solve(instance)
        assert result.status is MaxSATStatus.OPTIMUM
        assert result.cost == reference.cost

    def test_float_weights(self, engine):
        instance = WPMaxSATInstance()
        instance.add_hard([1, 2])
        instance.add_soft([-1], 1.60944)
        instance.add_soft([-2], 2.30259)
        result = engine.solve(instance)
        assert result.status is MaxSATStatus.OPTIMUM
        assert result.float_cost == pytest.approx(1.60944, rel=1e-6)

    def test_model_satisfies_hard_and_matches_cost(self, engine):
        instance = chain_instance()
        result = engine.solve(instance)
        assert instance.hard_satisfied_by(result.model)
        assert instance.cost_of_model(result.model) == result.cost


class TestMinimumCostHittingSet:
    def test_empty_cores(self):
        chosen, cost = minimum_cost_hitting_set([], {})
        assert chosen == set()
        assert cost == 0

    def test_single_core_picks_cheapest_element(self):
        cores = [frozenset({1, 2, 3})]
        weights = {1: 5, 2: 2, 3: 9}
        chosen, cost = minimum_cost_hitting_set(cores, weights)
        assert chosen == {2}
        assert cost == 2

    def test_disjoint_cores_sum_costs(self):
        cores = [frozenset({1, 2}), frozenset({3, 4})]
        weights = {1: 1, 2: 5, 3: 7, 4: 2}
        chosen, cost = minimum_cost_hitting_set(cores, weights)
        assert chosen == {1, 4}
        assert cost == 3

    def test_shared_element_is_preferred_when_cheaper(self):
        cores = [frozenset({1, 2}), frozenset({1, 3})]
        weights = {1: 4, 2: 3, 3: 3}
        chosen, cost = minimum_cost_hitting_set(cores, weights)
        assert chosen == {1}
        assert cost == 4

    def test_shared_element_is_avoided_when_expensive(self):
        cores = [frozenset({1, 2}), frozenset({1, 3})]
        weights = {1: 10, 2: 3, 3: 3}
        chosen, cost = minimum_cost_hitting_set(cores, weights)
        assert chosen == {2, 3}
        assert cost == 6

    def test_node_budget(self):
        # Every 3-subset of 9 elements: the disjoint-core bound is 3 and the
        # optimum 7, so the bound cannot settle the search at the root.
        cores = [frozenset(triple) for triple in itertools.combinations(range(1, 10), 3)]
        weights = {i: 1 for i in range(1, 10)}
        assert minimum_cost_hitting_set(cores, weights)[1] == 7
        with pytest.raises(BudgetExceededError):
            minimum_cost_hitting_set(cores, weights, max_nodes=3)

    def test_disjoint_core_bound_settles_independent_ties(self):
        # 2^20 optimal hitting sets; without the bound the search visits
        # exponentially many nodes.
        cores = [frozenset({2 * i + 1, 2 * i + 2}) for i in range(20)]
        weights = {element: 1 for element in range(1, 41)}
        chosen, cost = minimum_cost_hitting_set(cores, weights, max_nodes=1000)
        assert cost == 20
        assert all(chosen & core for core in cores)


class TestIterationCap:
    def test_hitting_set_iteration_cap_returns_unknown(self, monkeypatch):
        # The first round finds the core {x1}; the optimum needs a second.
        monkeypatch.setattr(hitting_set, "MAX_ROUNDS", 1)
        result = HittingSetEngine().solve(chain_instance())
        assert result.status is MaxSATStatus.UNKNOWN
