"""Implicit hitting set (MaxHS-style) Weighted Partial MaxSAT engine.

The implicit hitting set approach (Davies & Bacchus, the paper's reference
[5]) alternates between two sub-problems:

1. a **minimum-cost hitting set** over the unsat cores discovered so far —
   the cheapest set of soft clauses whose violation could explain every core;
2. a **SAT check** that assumes every other soft clause satisfied.

If the SAT check succeeds, the model's cost cannot exceed the hitting set's
cost, and no solution can cost less than a minimum hitting set of a subset of
the cores, so the model is optimal.  If it fails, the returned core is added
to the collection and the loop repeats.

The hitting set sub-problem is solved exactly with a branch-and-bound search
(a safety cap turns pathological runs into an UNKNOWN result instead of
letting them run away).  A node is pruned once its cost plus a disjoint-core
lower bound reaches the best cost: greedily pick pairwise-disjoint cores the
node leaves unhit, and add the cheapest element of each, since any completion
must pay for every one of them separately.  Without it the search is
exponential on independent ties: 20 disjoint two-element cores of equal
weights have 2^20 optimal hitting sets, and the bound settles them at the
root.  The search is cheap on most fault trees, but not on all: on the
600-event E4 structure (generator seed 1) a cold incremental session
collects up to 223 cores, and one of its first solves spent about 73% of its
time in :func:`minimum_cost_hitting_set` under cProfile.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.exceptions import BudgetExceededError, SolverInterrupted
from repro.kernels.bitset import CoverageIndex
from repro.logic.cnf import Literal
from repro.maxsat.engine import MaxSATEngine
from repro.maxsat.instance import WPMaxSATInstance
from repro.maxsat.result import MaxSATResult, MaxSATStatus
from repro.sat.types import SatStatus

__all__ = ["HittingSetEngine", "minimum_cost_hitting_set"]

#: Poll the cooperative stop flag every this many search nodes.
_STOP_CHECK_INTERVAL = 256


def minimum_cost_hitting_set(
    cores: List[FrozenSet[Literal]],
    weights: Dict[Literal, int],
    *,
    max_nodes: int = 2_000_000,
    seed: Optional[Set[Literal]] = None,
    stop_check: Optional[Callable[[], bool]] = None,
) -> Tuple[Set[Literal], int]:
    """Exact minimum-cost hitting set of ``cores`` by branch and bound.

    Every core must be hit by at least one chosen element; the cost of a
    choice is the sum of its elements' weights.  Returns the chosen set and
    its cost.  A node whose cost plus the disjoint-core lower bound of its
    unhit cores reaches the best cost found is pruned (module docstring).
    Raises :class:`BudgetExceededError` when the search exceeds ``max_nodes``
    nodes (a safety valve; never reached on realistic inputs).

    ``seed`` optionally provides a known feasible hitting set (e.g. the
    previous solve's solution in an incremental sweep); its cost becomes the
    initial upper bound, which can prune the search dramatically when the
    optimum moved little.  The seed is only used when it actually hits every
    core.

    ``stop_check`` is the portfolio's cooperative cancellation hook: it is
    polled every few hundred search nodes and, when it returns true, the
    search unwinds with :class:`SolverInterrupted` — so a cancelled engine
    stops promptly even while deep inside this recursion, not just at its
    next SAT call.

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

    # Greedy warm start: repeatedly pick the element hitting the most
    # still-unhit cores (ties broken by weight) to obtain an upper bound.
    best_set, best_cost = index.greedy_cover(weights)
    if seed is not None:
        if index.mask_of(seed) == all_mask:
            seed_cost = sum(weights.get(element, 0) for element in seed)
            # ``<=``: the seed wins cost ties against the greedy warm start,
            # and the search below only replaces on *strict* improvement — so
            # whenever the seed is optimal, the search returns the seed
            # itself.  Incremental callers rely on this: it makes the result
            # a deterministic function of (cores, weights, seed), independent
            # of greedy/search exploration order, so a still-optimal previous
            # optimum is kept and can be certified from the session's pool.
            if seed_cost <= best_cost:
                best_set, best_cost = set(seed), seed_cost

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


class HittingSetEngine(MaxSATEngine):
    """MaxHS-style implicit hitting set Weighted Partial MaxSAT solver.

    Parameters
    ----------
    max_iterations:
        Safety cap on the number of core/hitting-set iterations; when exceeded
        the engine returns UNKNOWN (the portfolio then falls back to the
        core-guided engines).
    max_conflicts:
        Optional conflict budget for the underlying CDCL solver.
    """

    name = "hitting-set"

    def __init__(
        self,
        *,
        max_iterations: int = 100_000,
        max_conflicts: Optional[int] = None,
    ) -> None:
        super().__init__(max_conflicts=max_conflicts)
        self.max_iterations = max_iterations

    def solve(self, instance: WPMaxSATInstance) -> MaxSATResult:
        start = time.perf_counter()
        solver = self._new_sat_solver(instance)
        selector_map = self._attach_selectors(solver, instance)
        weights = dict(selector_map.weights)
        selectors = list(weights)

        cores: List[FrozenSet[Literal]] = []
        sat_calls = 0

        try:
            for _ in range(self.max_iterations):
                self._check_stop()
                hitting_set, _ = minimum_cost_hitting_set(
                    cores, weights, stop_check=self.stop_check
                )
                assumptions = [sel for sel in selectors if sel not in hitting_set]
                result = solver.solve(assumptions)
                sat_calls += 1

                if result.status is SatStatus.SAT:
                    return self._result_from_model(
                        instance,
                        result.model or {},
                        start_time=start,
                        sat_calls=sat_calls,
                        conflicts=solver.conflicts,
                    )

                core = frozenset(result.core)
                if not core:
                    return self._unsat_result(
                        start_time=start, sat_calls=sat_calls, conflicts=solver.conflicts
                    )
                cores.append(core)
        except (BudgetExceededError, SolverInterrupted):
            pass

        return MaxSATResult(
            status=MaxSATStatus.UNKNOWN,
            engine=self.name,
            solve_time=time.perf_counter() - start,
            sat_calls=sat_calls,
            conflicts=solver.conflicts,
        )
