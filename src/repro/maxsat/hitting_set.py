"""Implicit hitting set (MaxHS-style) Weighted Partial MaxSAT: Step 5's one search loop.

The implicit hitting set approach (Davies & Bacchus, the paper's reference
[5]) alternates between two sub-problems:

1. a **minimum-cost hitting set** over the unsat cores discovered so far —
   the cheapest set of soft clauses whose violation could explain every core;
2. a **SAT check** that assumes every other soft clause satisfied, heaviest
   first (:func:`~repro.maxsat.engine.heaviest_first`).

If the SAT check succeeds, the model's cost cannot exceed the hitting set's
cost, and no solution can cost less than a minimum hitting set of a subset of
the cores, so the model is optimal.  If it fails, the returned core is added
to the collection and the loop repeats.  :func:`implicit_hitting_set` is
that loop, for :class:`HittingSetEngine` (RC2's hand-over included) and for
every :class:`~repro.maxsat.incremental.IncrementalMaxSATSession`, which
also passes a certificate that accepts a hitting set without a SAT call.
Each round after the first starts its search from the previous hitting set
plus the new core's cheapest member, which hits every core.  Every
hitting-set instance the MPMCS pipeline builds has one optimum (the
objective is the canonical order), so that bound changes neither the answer
nor the number of SAT calls, only the nodes searched.

The hitting set sub-problem is solved exactly with a branch-and-bound search.
A node is pruned once its cost plus a disjoint-core lower bound reaches the
best cost: greedily pick pairwise-disjoint cores the node leaves unhit, and
add the cheapest element of each, since any completion must pay for every
one of them separately.  Without it the search is exponential on independent
ties: 20 disjoint two-element cores of equal weights have 2^20 optimal
hitting sets, and the bound settles them at the root.  A node budget and
:data:`MAX_ROUNDS` turn pathological runs into :class:`BudgetExceededError`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.exceptions import BudgetExceededError, SolverInterrupted
from repro.kernels.bitset import CoverageIndex
from repro.logic.cnf import Literal
from repro.maxsat.engine import MaxSATEngine, heaviest_first
from repro.maxsat.instance import WPMaxSATInstance
from repro.maxsat.result import MaxSATResult, MaxSATStatus
from repro.sat.types import SatResult, SatStatus

__all__ = ["HittingSetEngine", "MAX_ROUNDS", "implicit_hitting_set", "minimum_cost_hitting_set"]

#: Safety cap on the rounds of one :func:`implicit_hitting_set` loop.
MAX_ROUNDS = 100_000

#: Poll the cooperative stop flag every this many search nodes.
_STOP_CHECK_INTERVAL = 256


def minimum_cost_hitting_set(
    cores: List[FrozenSet[Literal]],
    weights: Dict[Literal, int],
    *,
    incumbent: Optional[Set[Literal]] = None,
    max_nodes: int = 2_000_000,
    stop_check: Optional[Callable[[], bool]] = None,
) -> Tuple[Set[Literal], int]:
    """Exact minimum-cost hitting set of ``cores`` by branch and bound.

    Every core must be hit by at least one chosen element; the cost of a
    choice is the sum of its elements' weights.  Returns the chosen set and
    its cost.  A node whose cost plus the disjoint-core lower bound of its
    unhit cores reaches the best cost found is pruned (module docstring).
    Raises :class:`BudgetExceededError` when the search exceeds ``max_nodes``
    nodes (a safety valve; never reached on realistic inputs).

    ``incumbent``, when given, is a set known to hit every core: the search
    starts with its cost as the bound and returns it unless a strictly
    cheaper hitting set exists.

    ``stop_check`` is the caller's cooperative cancellation hook: it is
    polled every few hundred search nodes and, when it returns true, the
    search unwinds with :class:`SolverInterrupted` — so a cancelled engine
    or session stops promptly even while deep inside this recursion, not
    just at its next SAT call.

    The packed-bitset machinery (cores a partial choice still misses as one
    arbitrary-precision mask, per-element coverage masks) comes from
    :class:`repro.kernels.bitset.CoverageIndex`: extending a branch is two
    integer ops instead of a scan over the core list.
    """
    if not cores:
        return set(), 0

    index = CoverageIndex(cores)
    coverage = index.coverage
    all_mask = index.all_mask

    if incumbent is None:
        # Every hitting set costs less than all elements together.
        best_set: Set[Literal] = set()
        best_cost = sum(weights.get(element, 0) for element in coverage) + 1
    else:
        best_set = set(incumbent)
        best_cost = sum(weights.get(element, 0) for element in best_set)

    # Branching order inside a core: cheapest element first.
    sorted_cores = [
        sorted(core, key=lambda lit: weights.get(lit, 0)) for core in cores
    ]
    # Per core: its cheapest element's weight, and the mask of every core
    # sharing an element with it (itself included), for the lower bound.
    cheapest = [weights.get(core[0], 0) for core in sorted_cores]
    overlaps = [index.mask_of(core) for core in cores]
    nodes = 0

    def lower_bound(unhit_mask: int) -> int:
        """Cheapest elements of greedily picked pairwise-disjoint unhit cores."""
        bound = 0
        while unhit_mask:
            core_index = (unhit_mask & -unhit_mask).bit_length() - 1
            bound += cheapest[core_index]
            unhit_mask &= ~overlaps[core_index]
        return bound

    def search(chosen: Set[Literal], cost: int, unhit_mask: int) -> None:
        nonlocal best_set, best_cost, nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceededError("hitting set search exceeded its node budget")
        if (
            stop_check is not None
            and nodes % _STOP_CHECK_INTERVAL == 0
            and stop_check()
        ):
            raise SolverInterrupted("hitting set search stopped by cooperative cancellation")
        if cost >= best_cost:
            return
        if not unhit_mask:
            best_set, best_cost = set(chosen), cost
            return
        if cost + lower_bound(unhit_mask) >= best_cost:
            return
        # Branch on the elements of an unhit core with the fewest elements.
        core_index = -1
        probe = unhit_mask
        while probe:
            index = (probe & -probe).bit_length() - 1
            if core_index < 0 or len(sorted_cores[index]) < len(sorted_cores[core_index]):
                core_index = index
                if len(sorted_cores[index]) <= 2:
                    break
            probe &= probe - 1
        for element in sorted_cores[core_index]:
            new_cost = cost + weights.get(element, 0)
            if new_cost >= best_cost:
                continue
            chosen.add(element)
            search(chosen, new_cost, unhit_mask & ~coverage[element])
            chosen.discard(element)

    search(set(), 0, all_mask)
    return best_set, best_cost


def implicit_hitting_set(
    cores: List[FrozenSet[Literal]],
    objective: Dict[Literal, int],
    check: Callable[[List[Literal]], SatResult],
    *,
    certified: Optional[Callable[[Set[Literal]], bool]] = None,
    stop_check: Optional[Callable[[], bool]] = None,
) -> Tuple[Set[Literal], Optional[SatResult]]:
    """Minimise ``objective`` over its selectors by the implicit hitting set loop.

    Each round takes a minimum-cost hitting set of ``cores``.  When
    ``certified`` accepts it, the loop returns it and ``None``.  Otherwise
    ``check`` makes one SAT call assuming the selectors outside it, heaviest
    first; a model or an empty core (the hard clauses alone are
    unsatisfiable) ends the loop with that result, and any other core is
    appended to ``cores``.  Raises :class:`BudgetExceededError` after
    :data:`MAX_ROUNDS` rounds or when a search exceeds its node budget, and
    :class:`SolverInterrupted` once ``stop_check`` returns true.
    """
    selectors = heaviest_first(objective)
    incumbent: Optional[Set[Literal]] = None
    for _ in range(MAX_ROUNDS):
        if stop_check is not None and stop_check():
            raise SolverInterrupted("hitting set loop stopped by cooperative cancellation")
        hitting_set, _ = minimum_cost_hitting_set(
            cores, objective, incumbent=incumbent, stop_check=stop_check
        )
        if certified is not None and certified(hitting_set):
            return hitting_set, None
        result = check([selector for selector in selectors if selector not in hitting_set])
        if result.status is SatStatus.SAT or not result.core:
            return hitting_set, result
        core = frozenset(result.core)
        cores.append(core)
        # The core is disjoint from the hitting set (it holds only assumed
        # selectors), so adding its cheapest member hits every core.
        incumbent = hitting_set | {min(core, key=objective.__getitem__)}
    raise BudgetExceededError(f"implicit hitting set loop exceeded {MAX_ROUNDS} rounds")


class HittingSetEngine(MaxSATEngine):
    """MaxHS-style implicit hitting set Weighted Partial MaxSAT solver.

    Runs :func:`implicit_hitting_set` over the selectors of
    :meth:`_attach_selectors`.  A budget error or a stop through
    :attr:`stop_check` returns UNKNOWN.
    """

    name = "hitting-set"

    def solve(self, instance: WPMaxSATInstance) -> MaxSATResult:
        start = time.perf_counter()
        solver = self._new_sat_solver(instance)
        sat_calls = 0

        def check(assumptions: List[Literal]) -> SatResult:
            nonlocal sat_calls
            result = solver.solve(assumptions)
            sat_calls += 1
            return result

        try:
            _, result = implicit_hitting_set(
                [], self._attach_selectors(solver, instance), check, stop_check=self.stop_check
            )
        except (BudgetExceededError, SolverInterrupted):
            return MaxSATResult(
                status=MaxSATStatus.UNKNOWN,
                engine=self.name,
                solve_time=time.perf_counter() - start,
                sat_calls=sat_calls,
                conflicts=solver.conflicts,
            )
        if result is not None and result.status is SatStatus.SAT:
            return self._result_from_model(
                instance,
                result.model or {},
                start_time=start,
                sat_calls=sat_calls,
                conflicts=solver.conflicts,
            )
        return self._unsat_result(start_time=start, sat_calls=sat_calls, conflicts=solver.conflicts)
