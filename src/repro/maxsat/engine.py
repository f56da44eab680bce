"""Abstract base class and shared helpers for MaxSAT engines."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import SolverError, SolverInterrupted
from repro.logic.cnf import Literal
from repro.maxsat.instance import SoftClause, WPMaxSATInstance
from repro.maxsat.result import MaxSATResult, MaxSATStatus
from repro.sat.cdcl import CDCLSolver

__all__ = ["MaxSATEngine", "SelectorMap"]


@dataclass
class SelectorMap:
    """Bookkeeping linking soft clauses to their selector (assumption) literals.

    For a *unit* soft clause ``(l)`` the selector is ``l`` itself.  For a wider
    soft clause ``C`` a fresh relaxation variable ``r`` is introduced together
    with the hard clause ``C ∨ r``; assuming ``¬r`` then forces ``C`` to be
    satisfied, so the selector is ``¬r``.

    Attributes
    ----------
    weights:
        Mapping from selector literal to its (remaining) scaled integer weight.
        Selectors of duplicated soft clauses are merged by summing weights.
    originals:
        Mapping from selector literal to the soft clauses it represents, used
        to recompute model costs.
    """

    weights: Dict[Literal, int]
    originals: Dict[Literal, List[SoftClause]]

    @property
    def selectors(self) -> List[Literal]:
        return list(self.weights.keys())


class MaxSATEngine:
    """Base class for Weighted Partial MaxSAT engines.

    Subclasses implement :meth:`solve`.  The helpers below build the underlying
    CDCL solver, attach selectors to soft clauses, and assemble results, so the
    engines only contain algorithmic logic.
    """

    #: Human-readable engine name used in results and portfolio reports.
    name = "base"

    def __init__(self, *, max_conflicts: Optional[int] = None) -> None:
        self.max_conflicts = max_conflicts
        #: Optional cooperative-cancellation hook (set by the portfolio runner):
        #: a zero-argument callable returning True when the engine should stop.
        self.stop_check = None

    # -- public API -----------------------------------------------------------

    def solve(self, instance: WPMaxSATInstance) -> MaxSATResult:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------

    def _check_stop(self) -> None:
        """Raise :class:`SolverInterrupted` when cooperative cancellation fired.

        The CDCL solver polls :attr:`stop_check` at its restart boundaries,
        but an engine also spends real time *between* oracle calls — building
        fresh oracles, relaxing cores, encoding pseudo-Boolean bounds.
        Engines call this at the top of every iteration so a cancelled
        analysis (a service job's cancel or timeout) stops between solver
        restarts too, not only at the next restart.
        """
        if self.stop_check is not None and self.stop_check():
            raise SolverInterrupted("engine stopped by cooperative cancellation")

    def _new_sat_solver(self, instance: WPMaxSATInstance) -> CDCLSolver:
        """Build a CDCL solver preloaded with the hard clauses of ``instance``."""
        solver = CDCLSolver(max_conflicts=self.max_conflicts, stop_check=self.stop_check)
        for _ in range(instance.num_vars):
            solver.new_var()
        for clause in instance.hard:
            solver.add_clause(list(clause))
        return solver

    def _attach_selectors(
        self, solver: CDCLSolver, instance: WPMaxSATInstance
    ) -> SelectorMap:
        """Create selector literals for every soft clause of ``instance``."""
        weights: Dict[Literal, int] = {}
        originals: Dict[Literal, List[SoftClause]] = {}
        for soft in instance.soft:
            if len(soft.literals) == 1:
                selector = soft.literals[0]
            else:
                relax = solver.new_var()
                solver.add_clause(list(soft.literals) + [relax])
                selector = -relax
            weights[selector] = weights.get(selector, 0) + soft.scaled_weight
            originals.setdefault(selector, []).append(soft)
        return SelectorMap(weights=weights, originals=originals)

    def _result_from_model(
        self,
        instance: WPMaxSATInstance,
        model: Dict[int, bool],
        *,
        start_time: float,
        sat_calls: int,
        conflicts: int,
        status: MaxSATStatus = MaxSATStatus.OPTIMUM,
    ) -> MaxSATResult:
        """Build a result whose cost is recomputed from the model itself.

        Recomputing the cost from the model (rather than trusting the engine's
        internal lower bound) guards against bookkeeping bugs: the reported
        cost always matches the reported model.  The float cost sums the
        float weights of the same falsified soft clauses.
        """
        if not instance.hard_satisfied_by(model):
            raise SolverError("engine produced a model violating hard clauses")
        falsified = instance.falsified_by(model)
        return MaxSATResult(
            status=status,
            model=dict(model),
            cost=sum(soft.scaled_weight for soft in falsified),
            float_cost=sum(soft.weight for soft in falsified),
            engine=self.name,
            solve_time=time.perf_counter() - start_time,
            sat_calls=sat_calls,
            conflicts=conflicts,
        )

    def _unsat_result(
        self, *, start_time: float, sat_calls: int, conflicts: int
    ) -> MaxSATResult:
        return MaxSATResult(
            status=MaxSATStatus.UNSATISFIABLE,
            engine=self.name,
            solve_time=time.perf_counter() - start_time,
            sat_calls=sat_calls,
            conflicts=conflicts,
        )
