"""Tests for the warm-started incremental MaxSAT session.

The session must return exactly the cold pipeline's optima while actually
being incremental: weight-only re-solves reuse cached cores (typically a
single SAT call), and learned clauses persist in the underlying CDCL solver.
A session over :func:`~tests.conftest.whole_tree_skeleton` solves a whole
tree, fed every event's value; the warm route builds one per searched
module skeleton instead.
"""

import pytest
from hypothesis import given, settings

from repro.core.encoder import encode_mpmcs
from repro.core.pipeline import ModuleOptima, MPMCSSolver
from repro.exceptions import NoCutSetError
from repro.maxsat import engine as engine_module
from repro.maxsat import incremental as incremental_module
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.maxsat.rc2 import RC2Engine
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import (
    NAMED_TREES,
    fire_protection_system,
    get_tree,
    three_motor_system,
)

from tests.conftest import (
    leaf_values,
    searched_skeletons,
    voting_reuse_trees,
    whole_tree_skeleton,
)


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


def _loaded_clauses(instance, skeleton):
    """What a cold RC2 solve of ``instance`` and a warm session over
    ``skeleton`` each load into their solver: the hard clauses and the
    declared variable count.

    A cold solve that outgrows RC2's core budget hands over to the hitting set
    engine, which loads a solver of its own from the same instance; every
    cold load must match.  The session loads exactly one, at its first SAT
    call: a first solve from an empty core memo makes one.
    """
    cold_loads, warm_loads = [], []
    loaded = cold_loads
    original = engine_module.new_sat_solver

    def recording(instance, **options):
        loaded.append((instance.hard, instance.num_vars))
        return original(instance, **options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "new_sat_solver", recording)
        patch.setattr(incremental_module, "new_sat_solver", recording)
        RC2Engine().solve(instance)
        loaded = warm_loads
        session = IncrementalMaxSATSession(skeleton)
        assert warm_loads == []
        session.solve({leaf: (1, 1.0) for leaf in session.event_vars})
    cold, *handed_over = cold_loads
    assert all(load == cold for load in handed_over)
    (warm,) = warm_loads
    return cold, warm


def _assert_one_clause_path(tree):
    """The whole-tree encoding and each module skeleton's instance (one soft
    clause per leaf, as the cold skeleton solve adds) load what a session
    over the same skeleton loads."""
    cold, warm = _loaded_clauses(encode_mpmcs(tree).instance, whole_tree_skeleton(tree))
    assert cold == warm
    for skeleton in tree.compiled().modules:
        instance = skeleton.cnf.instance.copy()
        for leaf, var in skeleton.cnf.event_vars.items():
            instance.add_soft([-var], 1.0, label=leaf)
        cold, warm = _loaded_clauses(instance, skeleton)
        assert cold == warm


class TestOneClausePath:
    """The cold solves and the warm session load the same clause list."""

    @pytest.mark.parametrize("name", sorted(NAMED_TREES))
    def test_library_trees(self, name):
        _assert_one_clause_path(get_tree(name))

    @settings(max_examples=30, deadline=None)
    @given(voting_reuse_trees(min_events=3, max_events=9))
    def test_voting_and_shared_subtrees(self, tree):
        _assert_one_clause_path(tree)

    def test_solver_holds_every_declared_variable(self):
        tree = random_fault_tree(num_basic_events=30, seed=5, voting_ratio=0.2)
        session = IncrementalMaxSATSession(whole_tree_skeleton(tree))
        assert session._solver is None
        session.solve(leaf_values(tree))
        assert session._solver.num_vars == encode_mpmcs(tree).instance.num_vars


def _solved_events(session, tree):
    """The sorted events of ``session``'s optimum under ``tree``'s probabilities."""
    return tuple(sorted(session.solve(leaf_values(tree))))


class TestSessionAgainstColdPipeline:
    def test_fps_optimum_matches_cold(self):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(whole_tree_skeleton(tree))
        values = leaf_values(tree)
        events = tuple(sorted(session.solve(values)))
        cold = MPMCSSolver().solve(tree)
        assert events == cold.events
        assert sum(values[name][1] for name in events) == pytest.approx(cold.cost, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tree_optima_match_cold(self, seed):
        tree = random_fault_tree(num_basic_events=18, seed=seed, voting_ratio=0.25)
        session = IncrementalMaxSATSession(whole_tree_skeleton(tree))
        cold = MPMCSSolver().solve(tree)
        assert _solved_events(session, tree) == cold.events


class TestAssumptionOrder:
    @pytest.mark.parametrize("seed", range(4))
    def test_session_assumes_heaviest_leaves_first(self, monkeypatch, seed):
        # The session assumes the leaves outside the hitting set in
        # non-increasing objective.
        assumption_lists = []
        solve = CDCLSolver.solve

        def recording_solve(solver, assumptions=()):
            assumption_lists.append(list(assumptions))
            return solve(solver, assumptions)

        monkeypatch.setattr(CDCLSolver, "solve", recording_solve)
        tree = random_fault_tree(num_basic_events=18, seed=seed, voting_ratio=0.25)
        session = IncrementalMaxSATSession(whole_tree_skeleton(tree))
        values = leaf_values(tree)
        session.solve(values)
        objective = {-var: values[leaf][0] for leaf, var in session.event_vars.items()}
        assert assumption_lists
        for assumptions in assumption_lists:
            weights = [objective[sel] for sel in assumptions]
            assert weights == sorted(weights, reverse=True)
        # Variable order (a selector is ``-var``) would not pass.
        assert any(
            assumptions != sorted(assumptions, reverse=True) for assumptions in assumption_lists
        )


class TestWeightOnlyResolve:
    def test_weight_changes_reuse_cores(self):
        tree = random_fault_tree(num_basic_events=25, seed=7)
        session = IncrementalMaxSATSession(whole_tree_skeleton(tree))
        first = _solved_events(session, tree)
        assert first
        cores_after_first = session.num_cores
        calls_after_first = session.sat_calls
        certified_after_first = session.rerank_stats["certified"]

        event = first[0]
        for index, probability in enumerate((0.002, 0.04, 0.3)):
            scenario = tree.copy(name=f"scenario-{index}")
            scenario.set_probability(event, probability)
            cold = MPMCSSolver().solve(scenario)
            assert _solved_events(session, scenario) == cold.events
        # Weight-only re-solves: every round is one SAT call, and a round
        # only repeats when it discovered a new core — so the scenarios cost
        # exactly one call each plus one per newly certified core, less one
        # for each scenario whose last round was certified (from the pool or
        # by evaluating the skeleton) without a SAT call.  On a warm session
        # that stays within a handful of calls for any weights.
        new_cores = session.num_cores - cores_after_first
        certified = session.rerank_stats["certified"] - certified_after_first
        assert session.sat_calls - calls_after_first == (3 - certified) + new_cores
        assert new_cores <= 3

    def test_skeleton_clauses_feed_the_session(self, skeleton_assemblies):
        tree = three_motor_system()
        skeleton = searched_skeletons(tree)[0]
        IncrementalMaxSATSession(skeleton)
        assert skeleton_assemblies == [skeleton]
        # A second session over the same skeleton, here through a
        # probability-only copy, assembles nothing: it loads the memoised
        # clauses.
        copy = tree.copy()
        copy.set_probability("motor_1", 0.5)
        again = searched_skeletons(copy)[0]
        second = IncrementalMaxSATSession(again)
        assert len(skeleton_assemblies) == 1
        assert again.cnf is skeleton.cnf
        assert second.event_vars == skeleton.cnf.event_vars


def _minimal_cut_sets(skeleton, leaves):
    """Every minimal cut set of ``skeleton``, by brute force over ``leaves``,
    each in the order of ``leaves``."""
    subsets = (
        [leaf for column, leaf in enumerate(leaves) if mask >> column & 1]
        for mask in range(1 << len(leaves))
    )
    return [
        subset
        for subset in subsets
        if skeleton.reaches_root(subset)
        and not any(
            skeleton.reaches_root([leaf for leaf in subset if leaf != dropped])
            for dropped in subset
        )
    ]


class TestBlockedEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(voting_reuse_trees())
    def test_solve_and_block_list_every_minimal_cut_set_in_order(self, tree):
        structure = tree.compiled()
        before = ModuleOptima(structure)
        before.update(tree)
        for skeleton in searched_skeletons(tree):
            num_hard = skeleton.cnf.instance.num_hard
            session = IncrementalMaxSATSession(skeleton)
            leaves = list(session.event_vars)
            # Powers of two: no two leaf sets tie.
            value = {leaf: (1 << column, leaf) for column, leaf in enumerate(leaves)}
            expected = sorted(
                _minimal_cut_sets(skeleton, leaves),
                key=lambda cut_set: sum(value[leaf][0] for leaf in cut_set),
            )
            listed = []
            with pytest.raises(NoCutSetError):
                for _ in range(len(expected) + 1):
                    listed.append(session.solve(value))
                    session.block(listed[-1])
            assert listed == expected
            # The blocking clauses went to the session's own solver only.
            assert skeleton.cnf.instance.num_hard == num_hard
        after = ModuleOptima(structure)
        after.update(tree)
        assert after.ranked == before.ranked
