"""Property-based tests: every MaxSAT engine must agree with brute force."""

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxsat import (
    BruteForceEngine,
    HittingSetEngine,
    MaxSATStatus,
    RC2Engine,
    WPMaxSATInstance,
)

from tests.conftest import cnf_clause_lists


def weighted_soft_units(max_vars: int = 5):
    """Strategy producing (weight, variable) pairs for unit soft clauses."""
    return st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=20),
            st.integers(min_value=1, max_value=max_vars),
        ),
        min_size=1,
        max_size=6,
    )


def build_instance(hard: List[List[int]], soft: List[Tuple[int, int]]) -> WPMaxSATInstance:
    instance = WPMaxSATInstance(precision=1)
    for clause in hard:
        instance.add_hard(clause)
    for weight, var in soft:
        instance.add_soft([-var], weight)
    return instance


# The hitting set engine's unit-soft properties are in test_new_engine_properties.py.
PRODUCTION_ENGINES = [
    ("rc2", RC2Engine),
]


class TestEnginesMatchBruteForce:
    @settings(max_examples=50, deadline=None)
    @given(cnf_clause_lists(max_vars=5, max_clauses=8), weighted_soft_units())
    def test_optimum_cost_matches(self, hard, soft):
        reference = BruteForceEngine().solve(build_instance(hard, soft))
        for name, factory in PRODUCTION_ENGINES:
            result = factory().solve(build_instance(hard, soft))
            assert result.status == reference.status, name
            if reference.status is MaxSATStatus.OPTIMUM:
                assert result.cost == reference.cost, (name, hard, soft)

    @settings(max_examples=40, deadline=None)
    @given(cnf_clause_lists(max_vars=5, max_clauses=8), weighted_soft_units())
    def test_returned_model_is_consistent(self, hard, soft):
        for name, factory in PRODUCTION_ENGINES:
            check = build_instance(hard, soft)
            result = factory().solve(check)
            if result.status is MaxSATStatus.OPTIMUM:
                assert check.hard_satisfied_by(result.model), name
                assert check.cost_of_model(result.model) == result.cost, name

    @settings(max_examples=30, deadline=None)
    @given(
        cnf_clause_lists(max_vars=5, max_clauses=6),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=9),
                st.lists(
                    st.integers(min_value=1, max_value=5).flatmap(
                        lambda v: st.sampled_from([v, -v])
                    ),
                    min_size=1,
                    max_size=3,
                    unique=True,
                ),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_non_unit_soft_clauses_match(self, hard, weighted_clauses):
        """Engines must also agree when soft clauses have several literals."""

        def build() -> WPMaxSATInstance:
            instance = WPMaxSATInstance(precision=1)
            for clause in hard:
                instance.add_hard(clause)
            for weight, clause in weighted_clauses:
                instance.add_soft(clause, weight)
            return instance

        reference = BruteForceEngine().solve(build())
        for name, factory in PRODUCTION_ENGINES + [("hitting-set", HittingSetEngine)]:
            result = factory().solve(build())
            assert result.status == reference.status, name
            if reference.status is MaxSATStatus.OPTIMUM:
                assert result.cost == reference.cost, (name, hard, weighted_clauses)
