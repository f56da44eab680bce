"""Abstract base class and shared helpers for MaxSAT engines."""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.exceptions import SolverError, SolverInterrupted
from repro.logic.cnf import Literal
from repro.maxsat.instance import WPMaxSATInstance
from repro.maxsat.result import MaxSATResult, MaxSATStatus
from repro.sat.cdcl import CDCLSolver

__all__ = ["MaxSATEngine", "heaviest_first", "new_sat_solver"]


def new_sat_solver(
    instance: WPMaxSATInstance, *, stop_check: Optional[Callable[[], bool]] = None
) -> CDCLSolver:
    """A CDCL solver holding the hard clauses of ``instance``, with the
    instance's declared variables reserved first: the one loader of the
    engines and the warm session.  It has no conflict budget; only
    ``stop_check`` ends a search early.

    An instance that keeps a loaded solver
    (:meth:`~repro.maxsat.instance.WPMaxSATInstance.keep_loaded_solver`) —
    a structure's memoised hard clauses and the encodings copied from them —
    gets a copy of that solver, loaded on first use, with the variables and
    hard clauses it declared since added in order; every other instance is
    loaded clause by clause.  Both give the same solver state.
    """
    memo = instance.solver_memo
    if memo is None:
        solver = CDCLSolver(stop_check=stop_check)
        return _load(solver, instance.num_vars, instance.hard)
    hard = instance.hard
    if memo.solver is None:
        memo.solver = _load(CDCLSolver(), memo.num_vars, hard[: memo.num_hard])
    solver = memo.solver.copy(stop_check=stop_check)
    return _load(solver, instance.num_vars, hard[memo.num_hard :])


def heaviest_first(weights: Mapping[Literal, float]) -> List[Literal]:
    """The selectors of ``weights`` by descending weight, ties in mapping
    order: the order every MaxSAT loop assumes them in (RC2 and
    :func:`~repro.maxsat.hitting_set.implicit_hitting_set`)."""
    return sorted(weights, key=weights.__getitem__, reverse=True)


def _load(solver: CDCLSolver, num_vars: int, hard: Iterable[Sequence[Literal]]) -> CDCLSolver:
    """``solver`` with variables up to ``num_vars`` reserved, then ``hard`` added."""
    for _ in range(solver.num_vars, num_vars):
        solver.new_var()
    for clause in hard:
        solver.add_clause(clause)
    return solver


class MaxSATEngine:
    """Base class for Weighted Partial MaxSAT engines.

    Subclasses implement :meth:`solve`.  The helpers below build the underlying
    CDCL solver, attach selectors to soft clauses, and assemble results, so the
    engines only contain algorithmic logic.  Engines carry no conflict
    budget; a solve stopped through :attr:`stop_check` returns ``UNKNOWN``.
    """

    #: Human-readable engine name, reported as a result's ``engine``.
    name = "base"

    def __init__(self) -> None:
        #: Optional cooperative-cancellation hook (``MPMCSSolver`` wires its
        #: ``stop_check`` here): a zero-argument callable returning True when
        #: the engine should stop.
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
        """:func:`new_sat_solver` under this engine's stop hook."""
        return new_sat_solver(instance, stop_check=self.stop_check)

    def _attach_selectors(
        self, solver: CDCLSolver, instance: WPMaxSATInstance
    ) -> Dict[Literal, int]:
        """Create a selector literal for every soft clause of ``instance``.

        Returns each selector's scaled integer weight.  For a *unit* soft
        clause ``(l)`` the selector is ``l`` itself.  For a wider soft clause
        ``C`` a fresh relaxation variable ``r`` is introduced together with
        the hard clause ``C ∨ r``; assuming ``¬r`` then forces ``C`` to be
        satisfied, so the selector is ``¬r``.  Selectors of duplicated soft
        clauses are merged by summing their weights.
        """
        weights: Dict[Literal, int] = {}
        for soft in instance.soft:
            if len(soft.literals) == 1:
                selector = soft.literals[0]
            else:
                relax = solver.new_var()
                solver.add_clause(list(soft.literals) + [relax])
                selector = -relax
            weights[selector] = weights.get(selector, 0) + soft.scaled_weight
        return weights

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
