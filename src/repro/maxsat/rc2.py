"""RC2 / OLL core-guided Weighted Partial MaxSAT engine.

The algorithm follows the RC2 solver (Ignatiev, Morgado & Marques-Silva, 2019),
which itself implements the OLL strategy:

1. every soft clause is given a selector literal used as a SAT assumption;
2. the SAT oracle is called with the active selectors as assumptions;
3. if satisfiable, the current model is optimal; otherwise the returned unsat
   core identifies soft clauses that cannot all be satisfied;
4. the minimum weight of the core is added to the lower bound, the core's
   selectors have their weights reduced, and a totalizer counting the core's
   violations is introduced whose "at most 1 violated" output becomes a new
   (sum) selector;
5. when a sum selector later reappears in a core its bound is incremented.

Every selector is active from the first SAT call.  One stratum per distinct
weight (the naive alternative to RC2's diversity-based stratification) costs
about one SAT call per event under ``-log`` weights, so it is not offered.

Under ``-log`` weights of one magnitude the lower bound can creep: a core's
minimum weight becomes the difference of two event weights, a few 10^-4 of
one, so on some 8-event trees a solve does not finish in minutes.  A solve
therefore has a core budget, one core per soft clause plus
:data:`CORE_SLACK`; past it the instance goes to the implicit hitting set
engine, whose iteration count does not depend on weight differences.  The
E4 corpus (200–800 events) needs at most 22 cores per solve; about 0.6% of
the solves of 4–12 event random trees exceed the budget.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Tuple

from repro.exceptions import BudgetExceededError, SolverInterrupted
from repro.logic.cnf import Literal
from repro.maxsat.cardinality import Totalizer
from repro.maxsat.engine import MaxSATEngine
from repro.maxsat.hitting_set import HittingSetEngine
from repro.maxsat.instance import WPMaxSATInstance
from repro.maxsat.result import MaxSATResult, MaxSATStatus
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus

__all__ = ["CORE_SLACK", "RC2Engine"]

#: Cores a solve may relax beyond one per soft clause before it hands over.
CORE_SLACK = 16


class RC2Engine(MaxSATEngine):
    """Core-guided (OLL) Weighted Partial MaxSAT solver.

    Parameters
    ----------
    max_conflicts:
        Optional conflict budget for the underlying CDCL solver; when exhausted
        the engine returns a result with status ``UNKNOWN``.

    A solve that relaxes more cores than its budget returns the
    :class:`~repro.maxsat.hitting_set.HittingSetEngine` result for the same
    instance, named ``"rc2+hitting-set"``, with both engines' counters.
    """

    name = "rc2"

    # ------------------------------------------------------------------ solve

    def solve(self, instance: WPMaxSATInstance) -> MaxSATResult:
        start = time.perf_counter()
        solver = self._new_sat_solver(instance)
        selector_map = self._attach_selectors(solver, instance)

        # Remaining weight per active selector literal.
        weights: Dict[Literal, int] = dict(selector_map.weights)
        # Totalizer bookkeeping for "sum" selectors:  selector -> (totalizer, bound).
        sums: Dict[Literal, Tuple[Totalizer, int]] = {}

        sat_calls = 0
        cores_left = len(weights) + CORE_SLACK

        try:
            while True:
                self._check_stop()
                assumptions = [sel for sel, weight in weights.items() if weight > 0]
                result = solver.solve(assumptions)
                sat_calls += 1

                if result.status is SatStatus.SAT:
                    model = result.model or {}
                    return self._result_from_model(
                        instance,
                        model,
                        start_time=start,
                        sat_calls=sat_calls,
                        conflicts=solver.conflicts,
                    )

                core = list(result.core)
                if not core:
                    # Conflict independent of assumptions: hard clauses unsatisfiable.
                    return self._unsat_result(
                        start_time=start, sat_calls=sat_calls, conflicts=solver.conflicts
                    )

                cores_left -= 1
                if cores_left < 0:
                    return self._hand_over(instance, start, sat_calls, solver.conflicts)
                min_weight = min(weights[sel] for sel in core)
                self._process_core(solver, core, min_weight, weights, sums)
        except (BudgetExceededError, SolverInterrupted):
            return MaxSATResult(
                status=MaxSATStatus.UNKNOWN,
                engine=self.name,
                solve_time=time.perf_counter() - start,
                sat_calls=sat_calls,
                conflicts=solver.conflicts,
            )

    def _hand_over(
        self, instance: WPMaxSATInstance, start: float, sat_calls: int, conflicts: int
    ) -> MaxSATResult:
        """Solve ``instance`` with the hitting set engine once the core budget is spent."""
        fallback = HittingSetEngine(max_conflicts=self.max_conflicts)
        fallback.stop_check = self.stop_check
        result = fallback.solve(instance)
        return dataclasses.replace(
            result,
            engine=f"{self.name}+{fallback.name}",
            solve_time=time.perf_counter() - start,
            sat_calls=sat_calls + result.sat_calls,
            conflicts=conflicts + result.conflicts,
        )

    # ------------------------------------------------------------- core handling

    def _process_core(
        self,
        solver: CDCLSolver,
        core: List[Literal],
        min_weight: int,
        weights: Dict[Literal, int],
        sums: Dict[Literal, Tuple[Totalizer, int]],
    ) -> None:
        """Relax an unsat core following the RC2/OLL strategy."""
        if len(core) == 1 and core[0] not in sums:
            # Unit core over an original soft clause: it can never be satisfied
            # together with the hard clauses, so pay its full weight and harden
            # its negation.
            sel = core[0]
            weights[sel] -= min_weight
            if weights[sel] == 0:
                solver.add_clause([-sel])
            return

        relax_literals: List[Literal] = []

        for sel in core:
            if sel in sums:
                self._process_sum_selector(sel, min_weight, weights, sums)
                relax_literals.append(-sel)
            else:
                self._process_original_selector(solver, sel, min_weight, weights, relax_literals)

        if len(relax_literals) > 1:
            totalizer = Totalizer(
                relax_literals,
                new_var=solver.new_var,
                add_clause=solver.add_clause,
            )
            # We have paid for exactly one violation among the relaxation
            # literals; a second violation costs `min_weight` more, so "at most
            # one violated" becomes a new soft (sum) selector.
            bound = 1
            if bound < len(relax_literals):
                new_selector = -totalizer.at_least(bound + 1)
                weights[new_selector] = weights.get(new_selector, 0) + min_weight
                sums[new_selector] = (totalizer, bound)

    def _process_original_selector(
        self,
        solver: CDCLSolver,
        sel: Literal,
        min_weight: int,
        weights: Dict[Literal, int],
        relax_literals: List[Literal],
    ) -> None:
        if weights[sel] == min_weight:
            # Fully paid: deactivate the selector; its violation indicator joins
            # the new totalizer.
            weights[sel] = 0
            relax_literals.append(-sel)
        else:
            # Residual weight remains.  Create a relaxed copy: a fresh variable
            # `v` with the hard clause (sel ∨ v) absorbs the violation counted
            # by the new totalizer while the original selector stays active
            # with its reduced weight (pysat's RC2 does exactly this).
            weights[sel] -= min_weight
            relaxed_copy = solver.new_var()
            solver.add_clause([sel, relaxed_copy])
            relax_literals.append(relaxed_copy)

    def _process_sum_selector(
        self,
        sel: Literal,
        min_weight: int,
        weights: Dict[Literal, int],
        sums: Dict[Literal, Tuple[Totalizer, int]],
    ) -> None:
        totalizer, bound = sums[sel]
        if weights[sel] == min_weight:
            weights[sel] = 0
        else:
            weights[sel] -= min_weight
        # Increase the bound of this sum: allowing `bound + 1` violations is a
        # new soft decision with weight `min_weight`.
        new_bound = bound + 1
        if new_bound < len(totalizer.outputs):
            new_selector = -totalizer.at_least(new_bound + 1)
            weights[new_selector] = weights.get(new_selector, 0) + min_weight
            sums[new_selector] = (totalizer, new_bound)
