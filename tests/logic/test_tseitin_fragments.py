"""Fragment semantics of the Tseitin encoder.

A :class:`CNFFragment` re-assembled after offset remapping must be
*equisatisfiable* with the monolithic encoding for every assignment of its
interface inputs — this is the invariant the encoder's per-shape fragment
memo rests on.  The property tests drive XOR, at-least-k and
voting-gate fragments through random formulas and random fault trees.
"""

import itertools

import pytest
from hypothesis import given, settings

from repro.core.encoder import assemble_structure_cnf, gate_fragment, shape_fragment
from repro.exceptions import FormulaError
from repro.fta.gates import Gate, GateType
from repro.logic.cnf import CNF
from repro.logic.formula import And, AtLeast, Not, Or, Var, Xor
from repro.logic.tseitin import encode_fragment, tseitin_encode
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus
from repro.workloads.generator import random_fault_tree

from tests.conftest import all_assignments, formulas, gate_shapes, small_random_trees


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

    host = CNF()
    input_literals = {name: host.var_for(name) for name in inputs}
    for _ in range(offset):
        host.new_var()  # shift the internal variables to a non-trivial offset
    output = fragment.instantiate(
        input_literals, new_var=host.new_var, add_clause=host.add_clause
    )
    host.add_clause([output])

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
        ) == _satisfiable([c.literals for c in host], frag_assumptions), assignment


class TestFragmentBasics:
    def test_single_variable_fragment(self):
        fragment = encode_fragment(Var("a"), ["a"])
        assert fragment.inputs == ("a",)
        assert fragment.num_vars == 1
        assert fragment.output == 1
        assert fragment.clauses == ()

    def test_instantiate_maps_negated_input_literals(self):
        fragment = encode_fragment(Not(Var("a")), ["a"])
        host = CNF()
        a = host.var_for("a")
        output = fragment.instantiate({"a": a}, new_var=host.new_var, add_clause=host.add_clause)
        assert output == -a

    def test_undeclared_variable_rejected(self):
        with pytest.raises(FormulaError):
            encode_fragment(And((Var("a"), Var("b"))), ["a"])

    def test_missing_instantiation_literal_rejected(self):
        fragment = encode_fragment(And((Var("a"), Var("b"))), ["a", "b"])
        host = CNF()
        with pytest.raises(FormulaError):
            fragment.instantiate({"a": 1}, new_var=host.new_var, add_clause=host.add_clause)

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
        host = CNF()
        literals = {f"@{i}": host.var_for(name) for i, name in enumerate("abc")}
        output = fragment.instantiate(
            literals, new_var=host.new_var, add_clause=host.add_clause
        )
        host.add_clause([output])
        for bits in itertools.product([False, True], repeat=3):
            assumptions = [
                var if value else -var
                for var, value in zip([1, 2, 3], bits)
            ]
            expected = sum(bits) >= 2
            assert _satisfiable([c.literals for c in host], assumptions) is expected

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
        assembled = assemble_structure_cnf(tree)
        events = list(tree.events_reachable_from_top())
        clauses = [c.literals for c in assembled.cnf]
        for assignment in all_assignments(events):
            assumptions = [
                assembled.var_map[name] if value else -assembled.var_map[name]
                for name, value in assignment.items()
            ]
            assert _satisfiable(clauses, assumptions) is tree.evaluate(assignment)

    def test_fragments_relocate_across_trees(self):
        """One memoised fragment instantiates correctly at different offsets."""
        first_tree = random_fault_tree(num_basic_events=8, seed=3, voting_ratio=0.3)
        second_tree = random_fault_tree(num_basic_events=8, seed=4, voting_ratio=0.3)
        shape_fragment.cache_clear()

        first = assemble_structure_cnf(first_tree)
        first_shapes = gate_shapes(first_tree)
        assert shape_fragment.cache_info().misses == len(first_shapes)
        again = assemble_structure_cnf(first_tree)
        assert shape_fragment.cache_info().misses == len(first_shapes)
        assert [c.literals for c in first.cnf] == [c.literals for c in again.cnf]

        # The second tree encodes only the shapes the first did not have, and
        # its relocated fragments still encode its own structure function.
        second = assemble_structure_cnf(second_tree)
        assert shape_fragment.cache_info().misses == len(first_shapes | gate_shapes(second_tree))
        assert first_shapes & gate_shapes(second_tree)  # some fragment is shared
        clauses = [c.literals for c in second.cnf]
        for assignment in all_assignments(list(second_tree.events_reachable_from_top())):
            assumptions = [
                second.var_map[name] if value else -second.var_map[name]
                for name, value in assignment.items()
            ]
            assert _satisfiable(clauses, assumptions) is second_tree.evaluate(assignment)
