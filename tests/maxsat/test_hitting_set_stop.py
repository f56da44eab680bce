"""Cooperative cancellation inside the hitting-set branch-and-bound.

A cancelled solve must stop promptly even while deep inside the B&B
recursion — not only at its next SAT call.  The search polls ``stop_check``
every few hundred nodes and unwinds with :class:`SolverInterrupted`; the
engine maps that to an UNKNOWN result.
"""

from itertools import combinations

import pytest

from repro.exceptions import SolverInterrupted
from repro.maxsat.engine import MaxSATStatus
from repro.maxsat.hitting_set import HittingSetEngine, minimum_cost_hitting_set
from repro.maxsat.instance import WPMaxSATInstance


def _pairwise_instance():
    """All 2-element cores over 12 elements: a deep B&B (optimum = 11)."""
    cores = [frozenset(pair) for pair in combinations(range(1, 13), 2)]
    weights = {element: 1 for element in range(1, 13)}
    return cores, weights


class TestStopCheckInsideTheSearch:
    def test_search_polls_stop_check_mid_recursion(self):
        cores, weights = _pairwise_instance()
        polls = []
        chosen, cost = minimum_cost_hitting_set(
            cores, weights, stop_check=lambda: polls.append(1) is not None and False
        )
        # The search is deep enough to cross the polling interval repeatedly.
        assert len(polls) > 1
        assert cost == 11
        assert all(chosen & core for core in cores)

    def test_tripped_stop_check_raises_solver_interrupted(self):
        cores, weights = _pairwise_instance()
        with pytest.raises(SolverInterrupted, match="cooperative cancellation"):
            minimum_cost_hitting_set(cores, weights, stop_check=lambda: True)

    def test_tripped_stop_check_unwinds_promptly(self):
        cores, weights = _pairwise_instance()
        polls = []

        def tripping():
            polls.append(1)
            return True

        with pytest.raises(SolverInterrupted):
            minimum_cost_hitting_set(cores, weights, stop_check=tripping)
        # The very first poll trips, so the search must not keep branching.
        assert len(polls) == 1

    def test_no_stop_check_still_solves(self):
        cores, weights = _pairwise_instance()
        chosen, cost = minimum_cost_hitting_set(cores, weights)
        assert cost == 11
        assert all(chosen & core for core in cores)


class TestEngineMapsInterruptionToUnknown:
    def test_stopped_engine_returns_unknown(self):
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1, 2])
        instance.add_soft([-1], 2)
        instance.add_soft([-2], 5)
        engine = HittingSetEngine()
        engine.stop_check = lambda: True
        result = engine.solve(instance)
        assert result.status is MaxSATStatus.UNKNOWN

    def test_unstopped_engine_still_finds_the_optimum(self):
        instance = WPMaxSATInstance(precision=1)
        instance.add_hard([1, 2])
        instance.add_soft([-1], 2)
        instance.add_soft([-2], 5)
        engine = HittingSetEngine()
        engine.stop_check = lambda: False
        result = engine.solve(instance)
        assert result.status is MaxSATStatus.OPTIMUM
        assert result.cost == 2
