"""Tests for the warm-started incremental MaxSAT session.

The session must return exactly the cold pipeline's optima (and blocked
enumeration) while actually being incremental: weight-only re-solves reuse
cached cores (typically a single SAT call), learned clauses persist in the
underlying CDCL solver, and blocking clauses persist via activation literals.
"""

import pytest

from repro.api.cache import ArtifactCache
from repro.core.pipeline import MPMCSSolver
from repro.exceptions import SolverError
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import fire_protection_system


class TestCDCLIncrementalInterface:
    def test_add_clauses_between_solves_keeps_learnt_state(self):
        solver = CDCLSolver()
        # Pigeonhole-ish contradiction discovered under assumptions: learning
        # happens, and the learned clauses must survive into the next solve.
        for _ in range(6):
            solver.new_var()
        solver.add_clauses([[1, 2], [-1, 3], [-2, 3], [-3, 4], [-3, 5], [-4, -5, 6]])
        first = solver.solve([-6])
        assert first.status is SatStatus.UNSAT or first.status is SatStatus.SAT
        learnts_after_first = solver.num_learnts
        solver.add_clauses([[6, -1]])
        second = solver.solve()
        assert second.status is SatStatus.SAT
        assert solver.num_learnts >= learnts_after_first

    def test_add_clauses_can_flip_satisfiability(self):
        solver = CDCLSolver()
        solver.add_clauses([[1, 2]])
        assert solver.solve().status is SatStatus.SAT
        solver.add_clauses([[-1], [-2]])
        assert solver.solve().status is SatStatus.UNSAT


class TestSessionAgainstColdPipeline:
    def test_fps_optimum_matches_cold(self):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(tree)
        outcome = session.solve_tree(tree)
        cold = MPMCSSolver(mode="sequential").solve(tree)
        assert outcome.events == cold.events
        assert outcome.cost == pytest.approx(cold.cost, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tree_optima_match_cold(self, seed):
        tree = random_fault_tree(num_basic_events=18, seed=seed, voting_ratio=0.25)
        session = IncrementalMaxSATSession(tree)
        outcome = session.solve_tree(tree)
        cold = MPMCSSolver(mode="sequential").solve(tree)
        assert outcome.events == cold.events

    def test_blocked_enumeration_matches_cold_ranking(self):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(tree)
        blocked = []
        warm_costs = []
        for _ in range(4):
            outcome = session.solve_tree(tree, blocked)
            assert outcome is not None
            warm_costs.append((outcome.scaled_cost, outcome.events))
            blocked.append(outcome.events)
        # Costs rise monotonically and every set is a minimal cut set.
        assert warm_costs == sorted(warm_costs, key=lambda item: item[0])
        for _, events in warm_costs:
            assert tree.is_minimal_cut_set(events)

    def test_exhausted_enumeration_returns_none(self):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(tree)
        blocked = []
        while True:
            outcome = session.solve_tree(tree, blocked)
            if outcome is None:
                break
            blocked.append(outcome.events)
            assert len(blocked) < 50  # FPS has a handful of cut sets
        # Re-solving with no blocks still works after exhaustion.
        assert session.solve_tree(tree) is not None


class TestWeightOnlyResolve:
    def test_weight_changes_reuse_cores(self):
        tree = random_fault_tree(num_basic_events=25, seed=7)
        session = IncrementalMaxSATSession(tree)
        first = session.solve_tree(tree)
        assert first is not None
        cores_after_first = session.num_cores
        calls_after_first = session.sat_calls
        certified_after_first = session.rerank_stats["certified"]

        event = first.events[0]
        for index, probability in enumerate((0.002, 0.04, 0.3)):
            scenario = tree.copy(name=f"scenario-{index}")
            scenario.set_probability(event, probability)
            outcome = session.solve_tree(scenario)
            assert outcome is not None
            cold = MPMCSSolver(mode="sequential").solve(scenario)
            assert outcome.events == cold.events
        # Weight-only re-solves: every round is one SAT call, and a round
        # only repeats when it discovered a new core — so the scenarios cost
        # exactly one call each plus one per newly certified core, less one
        # for each scenario whose last round the candidate pool certified
        # without a SAT call.  On a warm session that stays within a handful
        # of calls for any weights.
        new_cores = session.num_cores - cores_after_first
        certified = session.rerank_stats["certified"] - certified_after_first
        assert session.sat_calls - calls_after_first == (3 - certified) + new_cores
        assert new_cores <= 3

    def test_blocking_clauses_are_reused_across_solves(self):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(tree)
        first = session.solve_tree(tree)
        session.solve_tree(tree, [first.events])
        blocks_after = session.num_block_clauses
        # Blocking the same cut set again must not add a second clause.
        session.solve_tree(tree, [first.events])
        assert session.num_block_clauses == blocks_after

    def test_fragment_cache_feeds_the_session(self):
        tree = fire_protection_system()
        cache = ArtifactCache()
        IncrementalMaxSATSession(tree, cache)
        misses = cache.misses_for("subtree-cnf")
        assert misses == len(tree.gates)
        # A second session over the same structure hits every fragment.
        IncrementalMaxSATSession(tree, cache)
        assert cache.misses_for("subtree-cnf") == misses
        assert cache.hits_for("subtree-cnf") == misses

    def test_invalid_weight_rejected(self):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(tree)
        weights = {name: 1.0 for name in session.event_vars}
        weights[next(iter(weights))] = 0.0
        with pytest.raises(SolverError):
            session.solve(weights)
