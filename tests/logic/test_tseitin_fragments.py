"""The gate clause generators and the gate-by-gate assembly built on them.

Each gate of a fault tree contributes one fragment of the hard CNF: the
clauses :func:`and_clauses`, :func:`or_clauses` or :func:`at_least_clauses`
append over its children's literals.  A fragment must be *equisatisfiable*
with the gate's connective for every assignment of its inputs, with its
auxiliary variables numbered past the variables already in use; the
assembled clauses must be the tree's structure function.  The property tests
drive random fault trees, including voting gates with k = 1 and k = n,
single-child gates, shared subtrees and dual trees.
"""

import itertools

import pytest
from hypothesis import given, settings

from repro.analysis.pathsets import dual_tree
from repro.logic.tseitin import and_clauses, at_least_clauses, or_clauses
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus

from tests.conftest import (
    all_assignments,
    small_random_trees,
    voting_reuse_trees,
)


def _satisfiable(clauses, assumptions):
    solver = CDCLSolver()
    for clause in clauses:
        solver.add_clause(list(clause))
    return solver.solve(assumptions).status is SatStatus.SAT


def _assert_threshold_fragment(k, arity, *, offset):
    """``at_least_clauses`` over inputs ``1..arity``, its auxiliaries past
    ``arity + offset``, is satisfiable with its output asserted under an input
    assignment exactly when at least ``k`` inputs are true."""
    clauses = []
    output, num_vars = at_least_clauses(k, list(range(1, arity + 1)), arity + offset, clauses)
    clauses.append((output,))
    variables = {abs(literal) for clause in clauses for literal in clause}
    assert variables - set(range(1, arity + 1)) <= set(range(arity + offset + 1, num_vars + 1))
    for bits in itertools.product([False, True], repeat=arity):
        assumptions = [var if value else -var for var, value in enumerate(bits, start=1)]
        assert _satisfiable(clauses, assumptions) is (sum(bits) >= k), bits


def _assembled_cnf_is_structure_function(tree):
    """The assembled clauses are satisfiable under an assignment of the
    events exactly when the tree's top event occurs under it."""
    assembled = tree.compiled().cnf
    events = list(tree.events_reachable_from_top())
    for assignment in all_assignments(events):
        assumptions = [
            assembled.event_vars[name] if value else -assembled.event_vars[name]
            for name, value in assignment.items()
        ]
        assert _satisfiable(assembled.clauses, assumptions) is tree.evaluate(assignment)


class TestFragmentBasics:
    def test_gate_clauses_map_negated_input_literals(self):
        clauses = []
        assert and_clauses([-3, 5], 9, clauses) == (10, 10)
        assert clauses == [(-10, -3), (-10, 5), (10, 3, -5)]
        clauses = []
        assert or_clauses([-3, 5], 9, clauses) == (10, 10)
        assert clauses == [(3, 10), (-5, 10), (-10, -3, 5)]

    def test_single_literal_passes_through(self):
        for generator in (and_clauses, or_clauses):
            clauses = []
            assert generator([-7], 9, clauses) == (-7, 9)
            assert clauses == []
        clauses = []
        assert at_least_clauses(1, [7], 9, clauses) == (7, 9)
        assert clauses == []

    def test_inputs_sharing_a_literal_keep_its_first_occurrence(self):
        clauses = []
        output, _ = and_clauses([4, 4], 4, clauses)
        assert clauses == [(-output, 4), (-output, 4), (output, -4)]
        clauses = []
        output, _ = or_clauses([4, -2, 4], 4, clauses)
        assert clauses == [(-4, output), (2, output), (-4, output), (-output, 4, -2)]

    def test_internals_follow_the_variable_count(self):
        placed = {}
        for offset in (3, 10, 250):
            clauses = []
            output, num_vars = at_least_clauses(2, [1, 2, 3], offset, clauses)
            variables = {abs(literal) for clause in clauses for literal in clause}
            assert variables - {1, 2, 3} == set(range(offset + 1, num_vars + 1))
            assert offset < abs(output) <= num_vars
            shift = {v: v if v <= 3 else v - offset for v in variables | {abs(output)}}
            placed[offset] = [
                tuple(shift[abs(lit)] * (1 if lit > 0 else -1) for lit in clause)
                for clause in clauses
            ]
        # Every variable count places the same clauses, shifted.
        assert placed[3] == placed[10] == placed[250]

    @pytest.mark.parametrize("k, unit", [(0, 1), (3, -1)])
    def test_constant_thresholds_pin_a_variable(self, k, unit):
        clauses = []
        assert at_least_clauses(k, [1, 2], 2, clauses) == (3, 3)
        assert clauses == [(unit * 3,)]


class TestFragmentEquisatisfiability:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_at_least_k_fragment(self, k):
        _assert_threshold_fragment(k, 4, offset=k)

    def test_voting_gate_fragment(self):
        _assert_threshold_fragment(2, 3, offset=0)

    @pytest.mark.parametrize("generator, connective", [(and_clauses, all), (or_clauses, any)])
    def test_and_or_fragments(self, generator, connective):
        clauses = []
        output, _ = generator([1, 2, 3], 5, clauses)
        clauses.append((output,))
        for bits in itertools.product([False, True], repeat=3):
            assumptions = [var if value else -var for var, value in enumerate(bits, start=1)]
            assert _satisfiable(clauses, assumptions) is connective(bits)


class TestAssembledTreeEncoding:
    @settings(max_examples=25, deadline=None)
    @given(small_random_trees(min_events=4, max_events=8, voting_ratio=0.35))
    def test_assembled_cnf_matches_tree_semantics(self, tree):
        """The assembled CNF is the structure function of the tree."""
        _assembled_cnf_is_structure_function(tree)

    @settings(max_examples=40, deadline=None)
    @given(voting_reuse_trees(min_events=3, max_events=8))
    def test_voting_and_shared_subtrees_match_tree_semantics(self, tree):
        """Voting gates with k = 1 and k = n, single-child gates and shared
        subtrees assemble to the structure function, as do their duals."""
        _assembled_cnf_is_structure_function(tree)
        _assembled_cnf_is_structure_function(dual_tree(tree))

    @settings(max_examples=15, deadline=None)
    @given(small_random_trees(min_events=4, max_events=8, voting_ratio=0.35))
    def test_dual_tree_matches_tree_semantics(self, tree):
        """The path-set encoding's clauses are the dual tree's structure function."""
        _assembled_cnf_is_structure_function(dual_tree(tree))
