"""Property-based tests cross-checking the SAT solvers against ground truth."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cdcl import CDCLSolver
from tests.sat.dpll_oracle import DPLLSolver
from repro.sat.types import SatStatus

from tests.conftest import brute_force_cnf_satisfiable, cnf_clause_lists


def _load(solver, clauses):
    for clause in clauses:
        solver.add_clause(clause)
    return solver


class TestAgainstBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(cnf_clause_lists(max_vars=6, max_clauses=14))
    def test_cdcl_matches_brute_force(self, clauses):
        expected = brute_force_cnf_satisfiable(clauses)
        result = _load(CDCLSolver(), clauses).solve()
        assert (result.status is SatStatus.SAT) == expected
        if result.status is SatStatus.SAT:
            for clause in clauses:
                assert any(result.model[abs(lit)] == (lit > 0) for lit in clause)

    @settings(max_examples=80, deadline=None)
    @given(cnf_clause_lists(max_vars=5, max_clauses=10))
    def test_dpll_matches_brute_force(self, clauses):
        expected = brute_force_cnf_satisfiable(clauses)
        result = _load(DPLLSolver(), clauses).solve()
        assert (result.status is SatStatus.SAT) == expected
        if result.status is SatStatus.SAT:
            for clause in clauses:
                assert any(result.model.get(abs(lit), False) == (lit > 0) for lit in clause)

    @settings(max_examples=80, deadline=None)
    @given(cnf_clause_lists(max_vars=5, max_clauses=10))
    def test_cdcl_and_dpll_agree(self, clauses):
        cdcl = _load(CDCLSolver(), clauses).solve()
        dpll = _load(DPLLSolver(), clauses).solve()
        assert cdcl.status == dpll.status


class TestAssumptionProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        cnf_clause_lists(max_vars=5, max_clauses=10),
        st.lists(
            st.integers(min_value=1, max_value=5).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            min_size=1,
            max_size=4,
            unique=True,
        ),
    )
    def test_assumptions_equal_unit_clauses(self, clauses, assumptions):
        """Solving under assumptions must agree with adding them as unit clauses."""
        under_assumptions = _load(CDCLSolver(), clauses).solve(assumptions)
        with_units = _load(CDCLSolver(), clauses + [[lit] for lit in assumptions]).solve()
        assert under_assumptions.status == with_units.status

    @settings(max_examples=80, deadline=None)
    @given(
        cnf_clause_lists(max_vars=5, max_clauses=10),
        st.lists(
            st.integers(min_value=1, max_value=5).flatmap(
                lambda v: st.sampled_from([v, -v])
            ),
            min_size=1,
            max_size=4,
            unique=True,
        ),
    )
    def test_unsat_core_is_sound(self, clauses, assumptions):
        """The reported core, used as assumptions on its own, must still be UNSAT."""
        solver = _load(CDCLSolver(), clauses)
        result = solver.solve(assumptions)
        if result.status is SatStatus.UNSAT and result.core:
            assert set(result.core) <= set(assumptions)
            verification = _load(CDCLSolver(), clauses).solve(sorted(result.core))
            assert verification.status is SatStatus.UNSAT

    @settings(max_examples=60, deadline=None)
    @given(cnf_clause_lists(max_vars=5, max_clauses=10))
    def test_sat_models_respect_assumptions(self, clauses):
        solver = _load(CDCLSolver(), clauses)
        assumptions = [1, -2]
        result = solver.solve(assumptions)
        if result.status is SatStatus.SAT:
            assert result.model[1] is True
            assert result.model[2] is False


class TestIncrementalProperties:
    @settings(max_examples=60, deadline=None)
    @given(cnf_clause_lists(max_vars=5, max_clauses=8), cnf_clause_lists(max_vars=5, max_clauses=8))
    def test_incremental_equals_monolithic(self, first_batch, second_batch):
        """Adding clauses in two batches (with a solve in between) must give the
        same final answer as adding everything upfront."""
        incremental = _load(CDCLSolver(), first_batch)
        incremental.solve()
        for clause in second_batch:
            incremental.add_clause(clause)
        monolithic = _load(CDCLSolver(), first_batch + second_batch)
        assert incremental.solve().status == monolithic.solve().status
