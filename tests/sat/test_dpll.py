"""Unit tests for the reference DPLL solver."""

import pytest

from repro.exceptions import SolverError
from tests.sat.dpll_oracle import DPLLSolver
from repro.sat.types import SatStatus


class TestDPLLBasics:
    def test_empty_instance_is_sat(self):
        assert DPLLSolver().solve().status is SatStatus.SAT

    def test_single_unit_clause(self):
        solver = DPLLSolver()
        solver.add_clause([3])
        result = solver.solve()
        assert result.status is SatStatus.SAT
        assert result.model[3] is True

    def test_contradictory_units_unsat(self):
        solver = DPLLSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve().status is SatStatus.UNSAT

    def test_simple_satisfiable_instance(self):
        solver = DPLLSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        solver.add_clause([-2, -3])
        result = solver.solve()
        assert result.status is SatStatus.SAT
        model = result.model
        assert (model[1] or model[2]) and ((not model[1]) or model[3]) and (
            (not model[2]) or (not model[3])
        )

    def test_pigeonhole_2_into_1_unsat(self):
        # Two pigeons, one hole: p1 and p2 both in hole -> contradiction.
        solver = DPLLSolver()
        solver.add_clause([1])       # pigeon 1 in hole
        solver.add_clause([2])       # pigeon 2 in hole
        solver.add_clause([-1, -2])  # not both
        assert solver.solve().status is SatStatus.UNSAT

    def test_zero_literal_rejected(self):
        with pytest.raises(SolverError):
            DPLLSolver().add_clause([0])

    def test_statistics_are_reported(self):
        solver = DPLLSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        solver.add_clause([1, -2])
        result = solver.solve()
        assert result.status is SatStatus.SAT
        assert result.decisions >= 0
        assert result.propagations >= 0


class TestDPLLAssumptions:
    def test_assumptions_restrict_models(self):
        solver = DPLLSolver()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[-1])
        assert result.status is SatStatus.SAT
        assert result.model[2] is True

    def test_conflicting_assumptions(self):
        solver = DPLLSolver()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[1, -1])
        assert result.status is SatStatus.UNSAT

    def test_unsat_under_assumptions_reports_core(self):
        solver = DPLLSolver()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[-1, -2])
        assert result.status is SatStatus.UNSAT
        assert result.core <= {-1, -2}
        assert result.core  # non-empty
