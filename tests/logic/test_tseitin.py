"""Unit and property tests for the Tseitin transformation (paper Step 2)."""

import itertools

import pytest
from hypothesis import given, settings

from repro.logic.formula import And, AtLeast, FALSE, Not, Or, TRUE, Var
from repro.logic.tseitin import TseitinEncoder, tseitin_encode
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus

from tests.conftest import all_assignments, formulas


def models_of_formula(formula):
    """All satisfying assignments of a formula (exhaustive)."""
    names = sorted(formula.variables())
    return [a for a in all_assignments(names) if formula.evaluate(a)]


def cnf_satisfiable_with(cnf, named_assignment):
    """Check with the CDCL solver that the CNF is satisfiable when the named
    problem variables are fixed to ``named_assignment``."""
    solver = CDCLSolver()
    solver.add_clauses(cnf)
    assumptions = []
    for name, value in named_assignment.items():
        var = cnf.name_to_var[name]
        assumptions.append(var if value else -var)
    return solver.solve(assumptions).status is SatStatus.SAT


class TestBasicEncodings:
    def test_single_variable(self):
        result = tseitin_encode(Var("a"))
        assert result.root_literal == result.var_map["a"]
        assert result.num_aux_vars == 0

    def test_and_gate_equisatisfiability(self):
        formula = And((Var("a"), Var("b")))
        result = tseitin_encode(formula)
        assert cnf_satisfiable_with(result.cnf, {"a": True, "b": True})
        assert not cnf_satisfiable_with(result.cnf, {"a": True, "b": False})

    def test_or_gate_equisatisfiability(self):
        formula = Or((Var("a"), Var("b")))
        result = tseitin_encode(formula)
        assert cnf_satisfiable_with(result.cnf, {"a": False, "b": True})
        assert not cnf_satisfiable_with(result.cnf, {"a": False, "b": False})

    def test_true_constant(self):
        result = tseitin_encode(TRUE)
        solver = CDCLSolver()
        solver.add_clauses(result.cnf)
        assert solver.solve().status is SatStatus.SAT

    def test_false_constant_unsat(self):
        result = tseitin_encode(FALSE)
        solver = CDCLSolver()
        solver.add_clauses(result.cnf)
        assert solver.solve().status is SatStatus.UNSAT

    def test_without_root_assertion_cnf_stays_satisfiable(self):
        result = tseitin_encode(FALSE, assert_root=False)
        solver = CDCLSolver()
        solver.add_clauses(result.cnf)
        assert solver.solve().status is SatStatus.SAT

    def test_shared_subformulas_encoded_once(self):
        shared = And((Var("a"), Var("b")))
        formula = Or((shared, And((shared, Var("c")))))
        encoder = TseitinEncoder()
        result = encoder.encode(formula)
        # shared AND gate, outer AND gate, outer OR gate -> exactly 3 aux vars
        assert result.num_aux_vars == 3

    def test_polynomial_size(self):
        # A balanced n-ary formula must produce O(n) clauses, not exponential.
        variables = [Var(f"v{i}") for i in range(40)]
        formula = Or(tuple(And((variables[i], variables[i + 1])) for i in range(0, 40, 2)))
        result = tseitin_encode(formula)
        assert result.cnf.num_clauses < 200


class TestThresholdEncoding:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_atleast_k_of_four(self, k):
        operands = tuple(Var(f"v{i}") for i in range(4))
        formula = AtLeast(k, operands)
        result = tseitin_encode(formula)
        for assignment in all_assignments([f"v{i}" for i in range(4)]):
            expected = formula.evaluate(assignment)
            assert cnf_satisfiable_with(result.cnf, assignment) == expected

    def test_negated_threshold(self):
        formula = Not(AtLeast(2, (Var("a"), Var("b"), Var("c"))))
        result = tseitin_encode(formula)
        for assignment in all_assignments(["a", "b", "c"]):
            expected = formula.evaluate(assignment)
            assert cnf_satisfiable_with(result.cnf, assignment) == expected


class TestEncoderReuse:
    def test_same_encoder_shares_variable_numbering(self):
        encoder = TseitinEncoder()
        first = encoder.encode(Var("a") | Var("b"))
        second = encoder.encode(Var("a") & Var("c"))
        assert first.var_map["a"] == second.var_map["a"]
        assert first.cnf is second.cnf

    def test_literal_for_allocates_missing_names(self):
        encoder = TseitinEncoder()
        lit = encoder.literal_for("fresh")
        assert lit == encoder.cnf.name_to_var["fresh"]


class TestEquisatisfiabilityProperty:
    @settings(max_examples=60, deadline=None)
    @given(formulas(max_depth=3, max_vars=4))
    def test_projection_preserves_models(self, formula):
        """For every total assignment of the original variables, the Tseitin CNF is
        satisfiable under that assignment iff the formula evaluates to true."""
        result = tseitin_encode(formula)
        names = sorted(formula.variables())
        for assignment in all_assignments(names):
            expected = formula.evaluate(assignment)
            assert cnf_satisfiable_with(result.cnf, assignment) == expected
