"""Unit tests for the generalized totalizer pseudo-Boolean encoding."""

import itertools

import pytest

from repro.exceptions import SolverError
from repro.maxsat.pb import GeneralizedTotalizer, encode_weighted_at_most
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus


def check_at_most(terms, bound):
    """Exhaustively verify that the encoding accepts exactly the assignments with
    weighted sum <= bound."""
    solver = CDCLSolver()
    variables = []
    weighted_terms = []
    for weight in terms:
        var = solver.new_var()
        variables.append((weight, var))
        weighted_terms.append((weight, var))
    encode_weighted_at_most(weighted_terms, bound, solver.new_var, solver.add_clause)
    for bits in itertools.product([False, True], repeat=len(terms)):
        assumptions = [v if b else -v for (_, v), b in zip(variables, bits)]
        total = sum(w for (w, _), b in zip(variables, bits) if b)
        result = solver.solve(assumptions)
        assert (result.status is SatStatus.SAT) == (total <= bound), (terms, bound, bits)


class TestEncodeWeightedAtMost:
    @pytest.mark.parametrize(
        "terms,bound",
        [
            ([1, 1, 1], 2),
            ([2, 3, 4], 5),
            ([5, 5, 5], 10),
            ([1, 2, 4, 8], 7),
            ([3, 7], 2),
            ([10, 1, 1], 11),
        ],
    )
    def test_exhaustive_small_instances(self, terms, bound):
        check_at_most(terms, bound)

    def test_trivially_satisfied_constraint_adds_nothing(self):
        solver = CDCLSolver()
        terms = [(1, solver.new_var()), (2, solver.new_var())]
        before = solver.num_vars
        encode_weighted_at_most(terms, 10, solver.new_var, solver.add_clause)
        assert solver.num_vars == before

    def test_zero_bound_forces_all_false(self):
        solver = CDCLSolver()
        a, b = solver.new_var(), solver.new_var()
        encode_weighted_at_most([(3, a), (4, b)], 0, solver.new_var, solver.add_clause)
        result = solver.solve()
        assert result.status is SatStatus.SAT
        assert result.model[a] is False and result.model[b] is False

    def test_negative_bound_rejected(self):
        solver = CDCLSolver()
        with pytest.raises(SolverError):
            encode_weighted_at_most([(1, solver.new_var())], -1, solver.new_var, solver.add_clause)


class TestGeneralizedTotalizer:
    def test_invalid_weights_rejected(self):
        solver = CDCLSolver()
        with pytest.raises(SolverError):
            GeneralizedTotalizer([(0, solver.new_var())], 3, solver.new_var, solver.add_clause)
        with pytest.raises(SolverError):
            GeneralizedTotalizer([], 3, solver.new_var, solver.add_clause)

    def test_assert_above_build_bound_rejected(self):
        solver = CDCLSolver()
        terms = [(2, solver.new_var()), (3, solver.new_var())]
        gte = GeneralizedTotalizer(terms, 4, solver.new_var, solver.add_clause)
        with pytest.raises(SolverError):
            gte.assert_at_most(5)

    def test_distinct_sums_collapse_above_bound(self):
        solver = CDCLSolver()
        terms = [(10, solver.new_var()), (20, solver.new_var()), (30, solver.new_var())]
        gte = GeneralizedTotalizer(terms, 25, solver.new_var, solver.add_clause)
        # every representable sum key must be <= bound + 1
        assert all(value <= 26 for value in gte.sums)
