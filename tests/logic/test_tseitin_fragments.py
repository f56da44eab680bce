"""Fragment semantics of the Tseitin encoder.

A :class:`CNFFragment` re-assembled after offset remapping must be
*equisatisfiable* with the monolithic encoding for every assignment of its
interface inputs — this is the invariant the encoder's per-shape fragment
memo rests on.  The property tests drive XOR, at-least-k and
voting-gate fragments through random formulas and random fault trees,
including voting gates with k = 1 and k = n, shared subtrees and dual trees.
"""

import itertools

import pytest
from hypothesis import given, settings

from repro.analysis.pathsets import dual_tree
from repro.core.encoder import assemble_structure_cnf, gate_fragment, shape_fragment
from repro.exceptions import FormulaError
from repro.fta.gates import Gate, GateType
from repro.logic.formula import And, AtLeast, Not, Or, Var, Xor
from repro.logic.tseitin import encode_fragment, tseitin_encode
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus
from repro.workloads.generator import random_fault_tree

from tests.conftest import (
    all_assignments,
    formulas,
    gate_shapes,
    small_random_trees,
    voting_reuse_trees,
)


def _satisfiable(clauses, assumptions):
    solver = CDCLSolver()
    for clause in clauses:
        solver.add_clause(list(clause))
    return solver.solve(assumptions).status is SatStatus.SAT


def _fragment_agrees_with_monolith(formula, inputs, *, offset=0):
    """Check input-wise equisatisfiability of fragment vs monolithic encoding.

    For every assignment of the declared inputs, the fragment instantiated at
    ``offset`` (with its output asserted) and the monolithic encoding (root
    asserted) must agree on satisfiability.
    """
    monolith = tseitin_encode(formula, assert_root=True)
    fragment = encode_fragment(formula, inputs)

    # Inputs are host variables 1..n; the internals start past ``offset``.
    input_literals = {name: index for index, name in enumerate(inputs, start=1)}
    host = []
    output = fragment.instantiate(list(input_literals.values()), len(inputs) + offset, host)
    host.append((output,))

    for assignment in all_assignments(list(inputs)):
        mono_assumptions = [
            monolith.cnf.name_to_var[name] if value else -monolith.cnf.name_to_var[name]
            for name, value in assignment.items()
            if name in monolith.cnf.name_to_var
        ]
        frag_assumptions = [
            input_literals[name] if value else -input_literals[name]
            for name, value in assignment.items()
        ]
        assert _satisfiable(
            [c.literals for c in monolith.cnf], mono_assumptions
        ) == _satisfiable(host, frag_assumptions), assignment


def _assembled_cnf_is_structure_function(tree):
    """The fragment-assembled clauses are satisfiable under an assignment of
    the events exactly when the tree's top event occurs under it."""
    assembled = tree.compiled().cnf
    events = list(tree.events_reachable_from_top())
    for assignment in all_assignments(events):
        assumptions = [
            assembled.event_vars[name] if value else -assembled.event_vars[name]
            for name, value in assignment.items()
        ]
        assert _satisfiable(assembled.clauses, assumptions) is tree.evaluate(assignment)


class TestFragmentBasics:
    def test_single_variable_fragment(self):
        fragment = encode_fragment(Var("a"), ["a"])
        assert fragment.inputs == ("a",)
        assert fragment.num_vars == 1
        assert fragment.output == 1
        assert fragment.clauses == ()

    def test_instantiate_maps_negated_input_literals(self):
        fragment = encode_fragment(Not(Var("a")), ["a"])
        assert fragment.instantiate([7], 7, []) == -7
        assert fragment.instantiate([-7], 7, []) == 7

        # A negated input is negated again wherever a clause negates it.
        gate = encode_fragment(And((Var("a"), Var("b"))), ["a", "b"])
        clauses = []
        output = gate.instantiate([-3, 5], 9, clauses)
        assert output == 10
        assert clauses == [(-10, -3), (-10, 5), (10, 3, -5)]

    def test_undeclared_variable_rejected(self):
        with pytest.raises(FormulaError):
            encode_fragment(And((Var("a"), Var("b"))), ["a"])

    def test_missing_instantiation_literal_rejected(self):
        fragment = encode_fragment(And((Var("a"), Var("b"))), ["a", "b"])
        clauses = []
        with pytest.raises(FormulaError):
            fragment.instantiate([1], 2, clauses)
        with pytest.raises(FormulaError):
            fragment.instantiate([1, 2, 3], 3, clauses)
        assert clauses == []

    def test_instantiate_relocates_internals_by_offset(self):
        fragment = encode_fragment(AtLeast(2, (Var("a"), Var("b"), Var("c"))), ["a", "b", "c"])
        internals = fragment.num_internal_vars
        assert internals > 0
        placed = {}
        for offset in (3, 10, 250):
            clauses = []
            output = fragment.instantiate([1, 2, 3], offset, clauses)
            variables = {abs(literal) for clause in clauses for literal in clause}
            assert variables - {1, 2, 3} == set(range(offset + 1, offset + internals + 1))
            assert offset < abs(output) <= offset + internals
            shift = {v: v if v <= 3 else v - offset for v in variables | {abs(output)}}
            placed[offset] = [
                tuple(shift[abs(lit)] * (1 if lit > 0 else -1) for lit in clause)
                for clause in clauses
            ]
        # Every offset places the same clauses, shifted.
        assert placed[3] == placed[10] == placed[250]

    def test_inputs_sharing_a_literal_keep_its_first_occurrence(self):
        fragment = encode_fragment(And((Var("a"), Var("b"))), ["a", "b"])
        clauses = []
        output = fragment.instantiate([4, 4], 4, clauses)
        assert clauses == [(-output, 4), (-output, 4), (output, -4)]

    def test_unused_declared_input_allowed(self):
        fragment = encode_fragment(Var("a"), ["a", "b"])
        assert fragment.inputs == ("a", "b")
        _fragment_agrees_with_monolith(Var("a"), ("a", "b"))


class TestFragmentEquisatisfiability:
    def test_xor_fragment(self):
        _fragment_agrees_with_monolith(
            Xor((Var("a"), Var("b"), Var("c"))), ("a", "b", "c"), offset=3
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_at_least_k_fragment(self, k):
        operands = tuple(Var(n) for n in ("a", "b", "c", "d"))
        _fragment_agrees_with_monolith(
            AtLeast(k, operands), ("a", "b", "c", "d"), offset=k
        )

    def test_voting_gate_fragment(self):
        gate = Gate(name="g", gate_type=GateType.VOTING, children=("a", "b", "c"), k=2)
        fragment = gate_fragment(gate)
        assert fragment.inputs == ("@0", "@1", "@2")
        host = []
        output = fragment.instantiate([1, 2, 3], 3, host)
        host.append((output,))
        for bits in itertools.product([False, True], repeat=3):
            assumptions = [
                var if value else -var
                for var, value in zip([1, 2, 3], bits)
            ]
            expected = sum(bits) >= 2
            assert _satisfiable(host, assumptions) is expected

    def test_gates_of_one_shape_share_a_fragment(self):
        left = Gate(name="left", gate_type=GateType.OR, children=("a", "b"))
        right = Gate(name="right", gate_type=GateType.OR, children=("c", "d"))
        wider = Gate(name="wider", gate_type=GateType.OR, children=("a", "b", "c"))
        assert gate_fragment(left) is gate_fragment(right)
        assert gate_fragment(wider) is not gate_fragment(left)
        assert gate_fragment(wider).inputs == ("@0", "@1", "@2")

    @settings(max_examples=60, deadline=None)
    @given(formulas(max_depth=3, max_vars=4))
    def test_random_formula_fragments(self, formula):
        inputs = tuple(sorted(formula.variables())) or ("v1",)
        _fragment_agrees_with_monolith(formula, inputs, offset=2)


class TestAssembledTreeEncoding:
    @settings(max_examples=25, deadline=None)
    @given(small_random_trees(min_events=4, max_events=8, voting_ratio=0.35))
    def test_assembled_cnf_matches_tree_semantics(self, tree):
        """The fragment-assembled CNF is the structure function of the tree."""
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

    def test_fragments_relocate_across_trees(self):
        """One memoised fragment instantiates correctly at different offsets."""
        first_tree = random_fault_tree(num_basic_events=8, seed=3, voting_ratio=0.3)
        second_tree = random_fault_tree(num_basic_events=8, seed=4, voting_ratio=0.3)
        shape_fragment.cache_clear()

        first = assemble_structure_cnf(first_tree.compiled())
        first_shapes = gate_shapes(first_tree)
        assert shape_fragment.cache_info().misses == len(first_shapes)
        again = assemble_structure_cnf(first_tree.compiled())
        assert shape_fragment.cache_info().misses == len(first_shapes)
        assert first.clauses == again.clauses

        # The second tree encodes only the shapes the first did not have, and
        # its relocated fragments still encode its own structure function.
        assemble_structure_cnf(second_tree.compiled())
        assert shape_fragment.cache_info().misses == len(first_shapes | gate_shapes(second_tree))
        assert first_shapes & gate_shapes(second_tree)  # some fragment is shared
        _assembled_cnf_is_structure_function(second_tree)
