"""Unit tests for the CDCL SAT solver."""

import enum
import random

import pytest

from repro.exceptions import BudgetExceededError, SolverError, SolverInterrupted
from repro.sat.cdcl import CDCLSolver, _luby
from repro.sat.types import SatStatus


class _Lit(enum.IntEnum):
    ZERO = 0
    FOUR = 4


class TestBasicSolving:
    def test_empty_instance_is_sat(self):
        assert CDCLSolver().solve().status is SatStatus.SAT

    def test_unit_propagation_chain(self):
        solver = CDCLSolver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        result = solver.solve()
        assert result.status is SatStatus.SAT
        assert result.model[1] and result.model[2] and result.model[3]

    def test_contradiction_detected_at_level_zero(self):
        solver = CDCLSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve().status is SatStatus.UNSAT

    def test_tautological_clause_ignored(self):
        solver = CDCLSolver()
        solver.add_clause([1, -1])
        assert solver.solve().status is SatStatus.SAT

    def test_duplicate_literals_collapsed(self):
        solver = CDCLSolver()
        solver.add_clause([2, 2, 2])
        result = solver.solve()
        assert result.model[2] is True

    def test_model_satisfies_all_clauses(self):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [1, -2, 3]]
        solver = CDCLSolver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.status is SatStatus.SAT
        for clause in clauses:
            assert any(result.model[abs(lit)] == (lit > 0) for lit in clause)

    def test_unsat_pigeonhole_3_into_2(self):
        # Variables p_{i,j}: pigeon i in hole j -> var index 2*i + j + 1.
        def var(i, j):
            return 2 * i + j + 1

        solver = CDCLSolver()
        for i in range(3):
            solver.add_clause([var(i, 0), var(i, 1)])
        for j in range(2):
            for a in range(3):
                for b in range(a + 1, 3):
                    solver.add_clause([-var(a, j), -var(b, j)])
        result = solver.solve()
        assert result.status is SatStatus.UNSAT
        assert result.conflicts >= 1

    def test_invalid_literal_rejected(self):
        with pytest.raises(SolverError):
            CDCLSolver().add_clause([0])

    def test_invalid_configuration_rejected(self):
        with pytest.raises(SolverError):
            CDCLSolver(var_decay=0.0)
        with pytest.raises(SolverError):
            CDCLSolver(restart_base=0)

    def test_incremental_clause_addition(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        assert solver.solve().status is SatStatus.SAT
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve().status is SatStatus.UNSAT


class TestAssumptions:
    def test_assumption_forces_polarity(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[-1])
        assert result.status is SatStatus.SAT
        assert result.model[1] is False
        assert result.model[2] is True

    def test_failed_assumptions_yield_core(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2, 3])
        result = solver.solve(assumptions=[-1, -2, -3])
        assert result.status is SatStatus.UNSAT
        assert result.core
        assert result.core <= {-1, -2, -3}

    def test_core_is_actually_unsatisfiable(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        solver.add_clause([3, 4])
        result = solver.solve(assumptions=[-1, -2, -3])
        assert result.status is SatStatus.UNSAT
        # The core must contain the assumptions blocking clause (1, 2): -1 and -2.
        assert {-1, -2} <= set(result.core) or solver.solve(list(result.core)).is_unsat

    def test_solver_reusable_after_assumption_unsat(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1, -2]).status is SatStatus.UNSAT
        assert solver.solve().status is SatStatus.SAT
        assert solver.solve(assumptions=[-1]).status is SatStatus.SAT

    def test_assumptions_on_fresh_variables(self):
        solver = CDCLSolver()
        solver.add_clause([1])
        result = solver.solve(assumptions=[7])
        assert result.status is SatStatus.SAT
        assert result.model[7] is True

    def test_contradictory_assumptions(self):
        solver = CDCLSolver()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[3, -3])
        assert result.status is SatStatus.UNSAT
        assert result.core <= {3, -3}

    @pytest.mark.parametrize(
        "assumptions,num_vars", [([3, -6, 0, 9], 6), ([0], 0), ([_Lit.FOUR, 0], 4), ([2.0, 0], 2)]
    )
    def test_zero_assumption_raises_after_reserving_the_read_variables(
        self, assumptions, num_vars
    ):
        solver = CDCLSolver()
        with pytest.raises(SolverError, match="assumption literal cannot be 0"):
            solver.solve(assumptions)
        assert solver.num_vars == num_vars

    def test_many_assumptions_all_satisfiable(self):
        solver = CDCLSolver()
        for i in range(1, 21):
            solver.add_clause([i, i + 100])
        assumptions = [-(i) for i in range(1, 21)]
        result = solver.solve(assumptions)
        assert result.status is SatStatus.SAT
        for i in range(1, 21):
            assert result.model[i + 100] is True


class TestBudgetsAndInterruption:
    def test_conflict_budget_raises(self):
        # A hard unsat pigeonhole instance with a tiny conflict budget.
        def var(i, j):
            return 4 * i + j + 1

        solver = CDCLSolver(max_conflicts=1, restart_base=1)
        for i in range(5):
            solver.add_clause([var(i, j) for j in range(4)])
        for j in range(4):
            for a in range(5):
                for b in range(a + 1, 5):
                    solver.add_clause([-var(a, j), -var(b, j)])
        with pytest.raises(BudgetExceededError):
            solver.solve()

    def test_stop_check_interrupts(self):
        def var(i, j):
            return 5 * i + j + 1

        solver = CDCLSolver(stop_check=lambda: True, restart_base=1)
        for i in range(6):
            solver.add_clause([var(i, j) for j in range(5)])
        for j in range(5):
            for a in range(6):
                for b in range(a + 1, 6):
                    solver.add_clause([-var(a, j), -var(b, j)])
        with pytest.raises(SolverInterrupted):
            solver.solve()


class TestAddClauseChecks:
    """``add_clause`` refuses 0, ``bool`` and non-integer literals, accepts
    ``int`` subclasses such as ``IntEnum`` members, and allocates the
    variables of the literals read before any exit, also a tautology's or an
    invalid literal's."""

    @pytest.mark.parametrize(
        "clause,message,num_vars",
        [
            ([0], "invalid literal 0", 0),
            ([1, 2, 0, 7], "invalid literal 0", 2),
            ([3, True], "invalid literal True", 3),
            ([False], "invalid literal False", 0),
            ([2, 1.0], "invalid literal 1.0", 2),
            ([-5, "3"], "invalid literal '3'", 5),
            ([6, _Lit.ZERO], "invalid literal <_Lit.ZERO: 0>", 6),
        ],
    )
    def test_invalid_literals(self, clause, message, num_vars):
        solver = CDCLSolver()
        with pytest.raises(SolverError) as raised:
            solver.add_clause(clause)
        assert str(raised.value) == message
        assert solver.num_vars == num_vars
        assert solver.num_clauses == 0

    @pytest.mark.parametrize(
        "clause,num_vars,num_clauses",
        [
            ([5, 7, -5, 9], 7, 0),  # tautology: 9 is never read
            ([-3, 3], 3, 0),
            ([2, -8, 8, 12], 8, 0),
            ([4, 4, 6], 6, 1),
            ([_Lit.FOUR, -1], 4, 1),  # an IntEnum literal is an int
            ([-9, 2], 9, 1),
        ],
    )
    def test_tautologies_duplicates_and_int_subclasses(self, clause, num_vars, num_clauses):
        solver = CDCLSolver()
        solver.add_clause(clause)
        assert solver.num_vars == num_vars
        assert solver.num_clauses == num_clauses

    def test_an_int_enum_literal_solves_like_its_value(self):
        solver = CDCLSolver()
        solver.add_clause([_Lit.FOUR, -1])
        solver.add_clause([1])
        result = solver.solve()
        assert result.status is SatStatus.SAT and result.model[4] is True


class TestLearntSlots:
    def test_freed_learnt_slots_are_reused(self, monkeypatch):
        """A long incremental run whose learned clauses are reduced again and
        again keeps its clause arena no longer than the problem clauses plus
        the most learned clauses ever live at once."""
        rng = random.Random(11)
        solver = CDCLSolver(restart_base=20, max_learnt_factor=0.02)

        def clause():
            variables = rng.sample(range(1, 61), 3)
            return [var if rng.random() < 0.5 else -var for var in variables]

        for _ in range(250):
            solver.add_clause(clause())

        counts = {"recorded": 0, "peak": 0, "reused": 0}
        record = CDCLSolver._record_learnt

        def recording(self, learnt):
            reusable = len(learnt) > 1 and bool(self._free)
            record(self, learnt)
            counts["recorded"] += len(learnt) > 1
            counts["reused"] += reusable
            counts["peak"] = max(counts["peak"], len(self._learnts))
            assert len(self._lits) <= self.num_clauses + counts["peak"]

        monkeypatch.setattr(CDCLSolver, "_record_learnt", recording)
        for _ in range(40):
            assumptions = [var if rng.random() < 0.5 else -var for var in rng.sample(range(1, 61), 4)]
            solver.solve(assumptions)
            assert len(solver._lits) <= solver.num_clauses + counts["peak"]
            solver.add_clause(clause())

        # Without reuse the arena would hold every learned clause ever made.
        assert counts["reused"] > 0
        assert counts["recorded"] > 2 * counts["peak"]


class TestLuby:
    def test_luby_prefix(self):
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [_luby(i) for i in range(len(expected))] == expected
