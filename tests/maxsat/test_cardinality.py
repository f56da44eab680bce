"""Unit tests for the totalizer cardinality encoding."""

import itertools

import pytest

from repro.exceptions import SolverError
from repro.maxsat.cardinality import Totalizer
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus


def build_totalizer(n):
    solver = CDCLSolver()
    inputs = [solver.new_var() for _ in range(n)]
    totalizer = Totalizer(inputs, solver.new_var, solver.add_clause)
    return solver, inputs, totalizer


def assignments(inputs):
    """Yield ``(assumptions, true_count)`` for every assignment of ``inputs``."""
    for bits in itertools.product([False, True], repeat=len(inputs)):
        yield [v if b else -v for v, b in zip(inputs, bits)], sum(bits)


def at_least_answers(solver, inputs, totalizer):
    """Whether ``-at_least(j)`` is satisfiable, per assignment and bound ``j``."""
    return [
        [
            solver.solve(assumptions + [-totalizer.at_least(j)]).status is SatStatus.SAT
            for j in range(1, len(inputs) + 1)
        ]
        for assumptions, _ in assignments(inputs)
    ]


class TestTotalizerSemantics:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_outputs_count_true_inputs(self, n):
        # The encoding is upward-only: an output may be set true spuriously,
        # so the contract is that assuming -at_least(j) is satisfiable
        # exactly when fewer than j inputs are true.
        solver, inputs, totalizer = build_totalizer(n)
        for assumptions, count in assignments(inputs):
            for j in range(1, n + 1):
                result = solver.solve(assumptions + [-totalizer.at_least(j)])
                assert (result.status is SatStatus.SAT) == (count < j)

    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_growing_the_bound_matches_building_at_full_bound(self, n):
        grown = build_totalizer(n)
        _, _, totalizer = grown
        for k in range(1, n + 1):
            totalizer.at_least(k)
            assert len(totalizer.outputs) == k
        direct = build_totalizer(n)
        direct[2].at_least(n)
        assert at_least_answers(*grown) == at_least_answers(*direct)

    def test_core_of_53_inputs_at_bound_two_is_linear(self):
        clauses = []
        variables = iter(range(54, 10_000))
        totalizer = Totalizer(list(range(1, 54)), lambda: next(variables), clauses.append)
        totalizer.at_least(2)
        assert len(clauses) <= 4 * 53
        assert len(totalizer.outputs) == 2

    def test_empty_inputs_rejected(self):
        solver = CDCLSolver()
        with pytest.raises(SolverError):
            Totalizer([], solver.new_var, solver.add_clause)

    def test_at_least_bound_validation(self):
        _, _, totalizer = build_totalizer(3)
        with pytest.raises(SolverError):
            totalizer.at_least(0)
        with pytest.raises(SolverError):
            totalizer.at_least(4)
