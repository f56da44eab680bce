"""Unit tests exercising every MaxSAT engine on hand-crafted instances."""

import pytest

from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.core.pipeline import MPMCSSolver
from repro.core.topk import enumerate_mpmcs
from repro.exceptions import SolverError
from repro.maxsat import (
    BruteForceEngine,
    FuMalikEngine,
    HittingSetEngine,
    LinearSearchEngine,
    MaxSATResult,
    MaxSATStatus,
    RC2Engine,
    WPMaxSATInstance,
)
from repro.maxsat import rc2
from repro.workloads.generator import random_fault_tree

ALL_ENGINES = [
    RC2Engine,
    FuMalikEngine,
    LinearSearchEngine,
    BruteForceEngine,
]

ENGINE_IDS = ["rc2", "fu-malik", "linear", "brute-force"]


def make_engine(factory):
    return factory()


@pytest.fixture(params=ALL_ENGINES, ids=ENGINE_IDS)
def engine(request):
    return make_engine(request.param)


def simple_instance():
    """Hard: (x1 | x2); soft: prefer both false, x1 cheaper to violate."""
    instance = WPMaxSATInstance(precision=1)
    instance.add_hard([1, 2])
    instance.add_soft([-1], 2, label="not-x1")
    instance.add_soft([-2], 5, label="not-x2")
    return instance


class TestAllEnginesAgree:
    def test_simple_instance_optimum(self, engine):
        result = engine.solve(simple_instance())
        assert result.status is MaxSATStatus.OPTIMUM
        assert result.cost == 2
        assert result.model[1] is True
        assert result.model[2] is False

    def test_all_soft_satisfiable_cost_zero(self, engine):
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

    def test_no_soft_clauses(self, engine):
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1, 2])
        result = engine.solve(instance)
        assert result.status is MaxSATStatus.OPTIMUM
        assert result.cost == 0
        assert instance.hard_satisfied_by(result.model)

    def test_forced_violation_of_expensive_soft(self, engine):
        # Hard clauses force x1 true; the soft clause (-x1) must be violated.
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1])
        instance.add_soft([-1], 10)
        instance.add_soft([-2], 1)
        result = engine.solve(instance)
        assert result.cost == 10
        assert result.model[2] is False

    def test_weighted_choice_between_cores(self, engine):
        # Two independent "at least one of the pair is true" constraints.
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1, 2])
        instance.add_hard([3, 4])
        for var, weight in ((1, 9), (2, 3), (3, 4), (4, 6)):
            instance.add_soft([-var], weight)
        result = engine.solve(instance)
        assert result.status is MaxSATStatus.OPTIMUM
        assert result.cost == 3 + 4

    def test_non_unit_soft_clauses(self, engine):
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([-1, -2])
        instance.add_soft([1, 3], 4)
        instance.add_soft([2, -3], 5)
        result = engine.solve(instance)
        assert result.status is MaxSATStatus.OPTIMUM
        assert result.cost == 0

    def test_conflicting_unit_softs(self, engine):
        # Softs (x1) and (-x1): exactly one must be violated; violate the cheaper
        # one (weight 3), i.e. keep x1 false so the weight-7 clause is satisfied.
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([2])  # irrelevant hard clause
        instance.add_soft([1], 3)
        instance.add_soft([-1], 7)
        result = engine.solve(instance)
        assert result.cost == 3
        assert result.model[1] is False

    def test_float_weights_reported_on_original_scale(self, engine):
        instance = WPMaxSATInstance(precision=10**6)
        instance.add_hard([1])
        instance.add_soft([-1], 1.609438)
        result = engine.solve(instance)
        assert result.float_cost == pytest.approx(1.609438, rel=1e-6)

    def test_duplicate_soft_clauses_accumulate(self, engine):
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1])
        instance.add_soft([-1], 2)
        instance.add_soft([-1], 3)
        result = engine.solve(instance)
        assert result.cost == 5

    def test_result_statistics_populated(self, engine):
        result = engine.solve(simple_instance())
        assert result.engine
        assert result.sat_calls >= 1
        assert result.solve_time >= 0.0


class TestEngineSpecificBehaviour:
    def test_brute_force_refuses_large_instances(self):
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1])
        for var in range(2, 30):
            instance.add_soft([var], 1)
        with pytest.raises(SolverError):
            BruteForceEngine(max_soft=10).solve(instance)

    def test_linear_search_gives_up_gracefully_on_huge_encodings(self):
        # Exponentially-spread weights with a tiny node-size limit -> UNKNOWN.
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1, 2, 3, 4, 5, 6, 7, 8])
        for var in range(1, 9):
            instance.add_soft([-var], 3**var)
        engine = LinearSearchEngine(max_encoding_node_size=3)
        result = engine.solve(instance)
        assert result.status in (MaxSATStatus.OPTIMUM, MaxSATStatus.UNKNOWN)

    def test_rc2_handles_repeated_cores_with_residual_weights(self):
        # Chain of overlapping constraints forcing several rounds of core
        # relaxation with distinct weights.
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1, 2])
        instance.add_hard([2, 3])
        instance.add_hard([1, 3])
        instance.add_soft([-1], 5)
        instance.add_soft([-2], 8)
        instance.add_soft([-3], 3)
        for engine in (RC2Engine(), BruteForceEngine()):
            result = engine.solve(instance)
            assert result.cost == 8  # violate -3 and -1 (3 + 5) or -2 alone (8)


class TestRC2CoreBudget:
    """A solve past its core budget finishes with the hitting set engine."""

    # (events, generator seed, voting ratio): random trees on which the OLL
    # lower bound creeps by weight differences; without the budget, RC2 does
    # not finish their top-3 ranking within minutes.
    CREEPING_TREES = [(6, 1569, 0.2), (8, 1221, 0.2), (17, 7, 0.35)]

    @pytest.mark.parametrize("events,seed,voting_ratio", CREEPING_TREES)
    def test_creeping_trees_rank_like_mocus(self, events, seed, voting_ratio):
        tree = random_fault_tree(
            num_basic_events=events, seed=seed, voting_ratio=voting_ratio
        )
        ranked = enumerate_mpmcs(tree, 3, solver=MPMCSSolver(single_engine=RC2Engine()))
        reference = mocus_minimal_cut_sets(tree).ranked()[:3]
        assert [entry.events for entry in ranked] == [
            tuple(sorted(cut_set)) for cut_set, _ in reference
        ]
        for entry, (_, probability) in zip(ranked, reference):
            assert entry.probability == pytest.approx(probability, rel=1e-9)

    def test_solve_within_budget_is_rc2_alone(self):
        result = RC2Engine().solve(simple_instance())
        assert result.engine == "rc2"
        assert result.cost == 2

    def test_spent_budget_hands_over_with_both_counters(self, monkeypatch):
        instance = simple_instance()
        alone = HittingSetEngine().solve(instance)
        monkeypatch.setattr(rc2, "CORE_SLACK", -len(instance.soft))
        result = RC2Engine().solve(instance)
        assert result.engine == "rc2+hitting-set"
        assert result.status is MaxSATStatus.OPTIMUM
        assert result.cost == alone.cost == 2
        # The first SAT call found the core that spent the budget.
        assert result.sat_calls == alone.sat_calls + 1
