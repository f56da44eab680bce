"""Unit and property tests for fault tree -> Boolean formula conversion."""

import hashlib

from hypothesis import given, settings

from repro.fta.formula import structure_function, success_function
from repro.logic.formula import And, AtLeast, Not, Or, Var
from repro.workloads.generator import random_fault_tree

from tests.conftest import all_assignments, small_random_trees, voting_reuse_tree
from repro.workloads.library import NAMED_TREES, fire_protection_system, redundant_power_supply


class TestStructureFunction:
    def test_fps_structure_matches_paper_equation(self, fps_tree):
        """f(t) = (x1 & x2) | (x3 | x4 | (x5 & (x6 | x7)))  (Section II)."""
        formula = structure_function(fps_tree)
        expected_vars = {f"x{i}" for i in range(1, 8)}
        assert formula.variables() == expected_vars
        # Spot-check the equation on characteristic assignments.
        base = {name: False for name in expected_vars}
        assert formula.evaluate({**base, "x1": True, "x2": True}) is True
        assert formula.evaluate({**base, "x1": True}) is False
        assert formula.evaluate({**base, "x3": True}) is True
        assert formula.evaluate({**base, "x5": True, "x7": True}) is True
        assert formula.evaluate({**base, "x5": True}) is False

    def test_voting_gate_produces_atleast_node(self):
        formula = structure_function(redundant_power_supply())
        assert any(isinstance(node, AtLeast) for node in formula.iter_nodes())

    def test_shared_subtrees_share_formula_objects(self, shared_events_tree):
        formula = structure_function(shared_events_tree)
        # The shared events appear as identical Var nodes (hash-equal).
        names = [node.name for node in formula.iter_nodes() if isinstance(node, Var)]
        assert names.count("control_circuit") >= 2

    @settings(max_examples=25, deadline=None)
    @given(small_random_trees(min_events=4, max_events=7))
    def test_structure_function_matches_tree_evaluation(self, tree):
        formula = structure_function(tree)
        events = sorted(tree.events_reachable_from_top())
        for assignment in all_assignments(events):
            assert formula.evaluate(assignment) == tree.evaluate(assignment)


class TestSuccessFunction:
    def test_success_is_complement(self, fps_tree):
        failure = structure_function(fps_tree)
        success = success_function(fps_tree)
        events = sorted(fps_tree.events_reachable_from_top())
        for assignment in all_assignments(events):
            assert success.evaluate(assignment) == (not failure.evaluate(assignment))

    @settings(max_examples=15, deadline=None)
    @given(small_random_trees(min_events=4, max_events=6))
    def test_success_complement_property(self, tree):
        failure = structure_function(tree)
        success = success_function(tree)
        events = sorted(tree.events_reachable_from_top())
        for assignment in all_assignments(events):
            assert success.evaluate(assignment) == (not failure.evaluate(assignment))

    def test_fps_success_tree(self):
        """The worked example of paper Step 1 on Fig. 1."""
        x = {i: Var(f"x{i}") for i in range(1, 8)}
        # X(t) = (~x1 | ~x2) & (~x3 & ~x4 & (~x5 | (~x6 & ~x7)))
        expected = And(
            (
                Or((Not(x[1]), Not(x[2]))),
                And((Not(x[3]), Not(x[4]), Or((Not(x[5]), And((Not(x[6]), Not(x[7]))))))),
            )
        )
        assert success_function(fire_protection_system()) == expected

    def test_voting_gates_complement_into_dual_thresholds(self):
        """A k-of-n gate becomes an (n-k+1)-of-n gate."""
        tree = redundant_power_supply()
        votes = {
            (len(gate.children) - gate.k + 1, len(gate.children))
            for gate in tree.gates.values()
            if gate.k is not None
        }
        success = success_function(tree)
        thresholds = {
            (node.k, len(node.operands))
            for node in success.iter_nodes()
            if isinstance(node, AtLeast)
        }
        assert votes and thresholds == votes

    def test_success_formulas_are_pinned(self):
        """The dual built in one bottom-up pass is the formula the NNF
        complement of the structure function used to return, node for node:
        its rendering hashes to the digest that complement produced."""
        trees = [factory() for factory in NAMED_TREES.values()]
        trees += [voting_reuse_tree(3 + seed % 8, seed) for seed in range(300)]
        trees += [
            random_fault_tree(num_basic_events=events, seed=seed, voting_ratio=0.3)
            for events in (5, 20, 60)
            for seed in range(20)
        ]
        digest = hashlib.sha256()
        for tree in trees:
            digest.update(success_function(tree).to_infix().encode())
            digest.update(structure_function(tree).to_infix().encode())
        assert digest.hexdigest() == (
            "4020c2b3c7509f6105c2d67e9ccfb5c21c8f6ee6d9a1ca0a996e7bceb41b6fae"
        )
