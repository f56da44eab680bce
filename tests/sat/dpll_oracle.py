"""Reference DPLL SAT solver, the test suite's oracle.

A compact, easily-auditable solver used to cross-check the CDCL solver
(:mod:`repro.sat.cdcl`); no library code uses it.  It performs iterative
DPLL search with unit propagation and a most-occurrences branching rule, and
supports assumptions by seeding the assignment before search.

The implementation favours clarity over speed; the CDCL solver in
:mod:`repro.sat.cdcl` is the one used by the MPMCS pipeline for large trees.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import SolverError
from repro.logic.cnf import Literal
from repro.sat.types import BaseSatSolver, SatResult, SatStatus

__all__ = ["DPLLSolver"]


class DPLLSolver(BaseSatSolver):
    """Iterative DPLL with unit propagation and most-occurrences branching."""

    def __init__(self, *, max_conflicts: Optional[int] = None) -> None:
        self._clauses: List[Tuple[Literal, ...]] = []
        self._num_vars = 0
        self._max_conflicts = max_conflicts
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0

    # -- clause database ------------------------------------------------------

    def add_clause(self, literals: Sequence[Literal]) -> None:
        clause = tuple(dict.fromkeys(literals))
        for lit in clause:
            if lit == 0:
                raise SolverError("literal 0 is not allowed")
            self._num_vars = max(self._num_vars, abs(lit))
        self._clauses.append(clause)

    # -- solving ----------------------------------------------------------------

    def solve(self, assumptions: Iterable[Literal] = ()) -> SatResult:
        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0
        assumption_list = list(assumptions)

        assignment: Dict[int, bool] = {}
        for lit in assumption_list:
            var, value = abs(lit), lit > 0
            if assignment.get(var, value) != value:
                # Contradictory assumptions: the core is the clashing pair.
                return SatResult(
                    status=SatStatus.UNSAT,
                    core=frozenset({lit, -lit}),
                )
            assignment[var] = value
            self._num_vars = max(self._num_vars, var)

        sat, model = self._search(assignment)
        if sat:
            full_model = {var: model.get(var, False) for var in range(1, self._num_vars + 1)}
            return SatResult(
                status=SatStatus.SAT,
                model=full_model,
                conflicts=self._conflicts,
                decisions=self._decisions,
                propagations=self._propagations,
            )
        # The DPLL solver reports the full assumption set as the core: it is a
        # valid (if not minimal) set of failed assumptions.
        return SatResult(
            status=SatStatus.UNSAT,
            core=frozenset(assumption_list),
            conflicts=self._conflicts,
            decisions=self._decisions,
            propagations=self._propagations,
        )

    # -- internals ----------------------------------------------------------------

    def _search(self, assignment: Dict[int, bool]) -> Tuple[bool, Dict[int, bool]]:
        """Recursive DPLL over the simplified clause set."""
        stack: List[Tuple[Dict[int, bool], Optional[Literal]]] = [(dict(assignment), None)]
        while stack:
            current, decision = stack.pop()
            if decision is not None:
                self._decisions += 1
                current[abs(decision)] = decision > 0

            status, current = self._propagate(current)
            if status is False:
                self._conflicts += 1
                if self._max_conflicts is not None and self._conflicts > self._max_conflicts:
                    raise SolverError("conflict budget exceeded in DPLL solver")
                continue

            branch_var = self._pick_branch_variable(current)
            if branch_var is None:
                return True, current

            # Explore positive phase first (matches the CDCL default phase).
            stack.append((dict(current), -branch_var))
            stack.append((dict(current), branch_var))
        return False, {}

    def _propagate(self, assignment: Dict[int, bool]) -> Tuple[Optional[bool], Dict[int, bool]]:
        """Unit propagation until fixpoint.  Returns (status, assignment).

        ``status`` is False on conflict, True otherwise.
        """
        changed = True
        while changed:
            changed = False
            for clause in self._clauses:
                satisfied = False
                unassigned: List[Literal] = []
                for lit in clause:
                    value = assignment.get(abs(lit))
                    if value is None:
                        unassigned.append(lit)
                    elif value == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not unassigned:
                    return False, assignment
                if len(unassigned) == 1:
                    lit = unassigned[0]
                    assignment[abs(lit)] = lit > 0
                    self._propagations += 1
                    changed = True
        return True, assignment

    def _pick_branch_variable(self, assignment: Dict[int, bool]) -> Optional[int]:
        """Pick the unassigned variable occurring in the most unsatisfied clauses."""
        counts: Dict[int, int] = {}
        for clause in self._clauses:
            clause_satisfied = any(
                assignment.get(abs(lit)) == (lit > 0)
                for lit in clause
                if abs(lit) in assignment
            )
            if clause_satisfied:
                continue
            for lit in clause:
                var = abs(lit)
                if var not in assignment:
                    counts[var] = counts.get(var, 0) + 1
        if counts:
            return max(counts, key=counts.get)
        for var in range(1, self._num_vars + 1):
            if var not in assignment:
                return var
        return None
