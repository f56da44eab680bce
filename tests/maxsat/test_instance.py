"""Unit tests for the Weighted Partial MaxSAT instance model."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SolverError
from repro.maxsat.instance import WPMaxSATInstance, objective_weight, scale_weight


class TestConstruction:
    def test_add_hard_tracks_variables(self):
        instance = WPMaxSATInstance()
        instance.add_hard([1, -3])
        assert instance.num_vars == 3
        assert instance.num_hard == 1

    def test_empty_hard_clause_rejected(self):
        with pytest.raises(SolverError):
            WPMaxSATInstance().add_hard([])

    def test_zero_literal_rejected(self):
        with pytest.raises(SolverError):
            WPMaxSATInstance().add_hard([0])
        with pytest.raises(SolverError):
            WPMaxSATInstance().add_soft([0], 1.0)

    def test_add_soft_scales_weight(self):
        instance = WPMaxSATInstance(precision=1000)
        soft = instance.add_soft([-1], 2.5, label="x1")
        assert soft.scaled_weight == 2500
        assert soft.weight == 2.5
        assert soft.label == "x1"

    def test_tiny_weight_clamped_to_one(self):
        instance = WPMaxSATInstance(precision=10)
        soft = instance.add_soft([1], 1e-9)
        assert soft.scaled_weight == 1

    def test_nonpositive_weight_rejected(self):
        instance = WPMaxSATInstance()
        with pytest.raises(SolverError):
            instance.add_soft([1], 0.0)
        with pytest.raises(SolverError):
            instance.add_soft([1], -1.0)
        with pytest.raises(SolverError):
            instance.add_soft([1], float("inf"))

    def test_invalid_precision_rejected(self):
        with pytest.raises(SolverError):
            WPMaxSATInstance(precision=0)

    @pytest.mark.parametrize("literal", [1.0, True, False, "1", None, 2.5])
    def test_non_integer_literal_rejected(self, literal):
        instance = WPMaxSATInstance()
        with pytest.raises(SolverError, match="invalid literal"):
            instance.add_hard([literal, 2])
        with pytest.raises(SolverError, match="invalid literal"):
            instance.add_soft([literal], 1.0)
        assert instance.num_hard == 0
        assert instance.num_soft == 0
        assert instance.num_vars == 0

    def test_new_var_extends_count(self):
        instance = WPMaxSATInstance()
        instance.add_hard([2])
        assert instance.new_var() == 3


class TestCostEvaluation:
    def test_cost_of_model_counts_falsified_softs(self):
        instance = WPMaxSATInstance(precision=1)
        instance.add_soft([1], 5)
        instance.add_soft([2], 7)
        assert instance.cost_of_model({1: False, 2: True}) == 5
        assert instance.cost_of_model({1: False, 2: False}) == 12
        assert instance.cost_of_model({1: True, 2: True}) == 0

    def test_hard_satisfied_by(self):
        instance = WPMaxSATInstance()
        instance.add_hard([1, 2])
        assert instance.hard_satisfied_by({1: True, 2: False})
        assert not instance.hard_satisfied_by({1: False, 2: False})

    def test_copy_is_independent(self):
        instance = WPMaxSATInstance()
        instance.add_hard([1])
        clone = instance.copy()
        clone.add_hard([2])
        assert instance.num_hard == 1
        assert clone.num_hard == 2


class TestObjectiveWeight:
    """Summed objective weights order sets canonically, without ties."""

    @settings(max_examples=150, deadline=None)
    @given(
        names=st.lists(
            st.sampled_from(["a", "b", "c", "x1", "x10", "x2", "y"]),
            unique=True,
            min_size=1,
            max_size=6,
        ),
        palette=st.lists(
            st.sampled_from([1e-12, 0.1, 0.5, 1.5, 2.0]), min_size=6, max_size=6
        ),
        precision=st.sampled_from([1, 10, 10**9]),
    )
    def test_sum_order_is_cost_then_size_then_names(self, names, palette, precision):
        # Six names share at most five weights, so equal weights are forced.
        weights = dict(zip(names, palette))
        count = len(names)
        ranks = {name: rank for rank, name in enumerate(sorted(names))}
        objective = {
            name: objective_weight(weights[name], ranks[name], count, precision)
            for name in names
        }
        subsets = [
            tuple(sorted(subset))
            for size in range(count + 1)
            for subset in itertools.combinations(names, size)
        ]
        by_objective = sorted(subsets, key=lambda subset: sum(objective[n] for n in subset))
        by_contract = sorted(
            subsets,
            key=lambda subset: (
                sum(scale_weight(weights[n], precision) for n in subset),
                len(subset),
                subset,
            ),
        )
        assert by_objective == by_contract
        assert len({sum(objective[n] for n in subset) for subset in subsets}) == len(subsets)
        assert all(weight > 0 for weight in objective.values())

    def test_explicit_scaled_weight_is_kept(self):
        instance = WPMaxSATInstance(precision=1000)
        soft = instance.add_soft([-1], 2.5, scaled_weight=7)
        assert soft.scaled_weight == 7
        assert soft.weight == 2.5
