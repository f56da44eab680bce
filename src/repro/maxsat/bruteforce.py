"""Exhaustive reference MaxSAT engine.

This engine enumerates subsets of soft clauses that may be violated, in order
of increasing total weight, and returns the first subset for which the hard
clauses plus the remaining soft clauses are satisfiable.  It is exponential in
the number of soft clauses and exists purely as an oracle of ground truth: the
property-based tests compare every production engine against it on small
instances, and it doubles as a didactic description of what Weighted Partial
MaxSAT computes.
"""

from __future__ import annotations

import itertools
import time
from typing import List, Tuple

from repro.exceptions import SolverError
from repro.logic.cnf import Literal
from repro.maxsat.engine import MaxSATEngine
from repro.maxsat.instance import WPMaxSATInstance
from repro.maxsat.result import MaxSATResult
from repro.sat.types import SatStatus

__all__ = ["BruteForceEngine"]


class BruteForceEngine(MaxSATEngine):
    """Exhaustive subset-enumeration MaxSAT solver (reference implementation).

    Parameters
    ----------
    max_soft:
        Safety limit on the number of soft clauses, the engine's only budget;
        larger instances raise :class:`SolverError` instead of silently
        running for hours.
    """

    name = "brute-force"

    def __init__(self, *, max_soft: int = 22) -> None:
        super().__init__()
        self.max_soft = max_soft

    def solve(self, instance: WPMaxSATInstance) -> MaxSATResult:
        start = time.perf_counter()
        if instance.num_soft > self.max_soft:
            raise SolverError(
                f"brute-force engine refuses {instance.num_soft} soft clauses "
                f"(limit {self.max_soft}); use RC2 or the hitting set engine instead"
            )

        solver = self._new_sat_solver(instance)
        weights = self._attach_selectors(solver, instance)
        selectors = list(weights)
        sat_calls = 0

        # Quick feasibility check of the hard clauses alone.
        hard_result = solver.solve()
        sat_calls += 1
        if hard_result.status is not SatStatus.SAT:
            return self._unsat_result(
                start_time=start, sat_calls=sat_calls, conflicts=solver.conflicts
            )

        # Enumerate subsets of selectors to *violate*, cheapest total weight first.
        subsets: List[Tuple[int, Tuple[Literal, ...]]] = []
        for size in range(len(selectors) + 1):
            for combo in itertools.combinations(selectors, size):
                weight = sum(weights[sel] for sel in combo)
                subsets.append((weight, combo))
        subsets.sort(key=lambda item: item[0])

        for weight, violated in subsets:
            assumptions = [sel for sel in selectors if sel not in violated]
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

        # Unreachable: the empty-assumption subset (violate everything) was
        # already proven satisfiable by the hard feasibility check.
        raise SolverError("brute-force enumeration exhausted without finding a model")
