"""Unit and property tests for the ROBDD manager."""

import pytest
from hypothesis import given, settings

from repro.bdd.manager import BDDManager, FALSE_NODE, TRUE_NODE
from repro.exceptions import BDDError
from tests.conftest import all_assignments, small_random_trees


class TestConstruction:
    def test_terminals(self):
        manager = BDDManager(["a"])
        assert manager.true().is_true
        assert manager.false().is_false

    def test_var_node(self):
        manager = BDDManager(["a", "b"])
        function = manager.var("a")
        assert function.evaluate({"a": True}) is True
        assert function.evaluate({"a": False}) is False

    def test_unknown_variable_rejected(self):
        manager = BDDManager(["a"])
        with pytest.raises(BDDError):
            manager.var("zzz")

    def test_duplicate_order_rejected(self):
        with pytest.raises(BDDError):
            BDDManager(["a", "a"])

    def test_empty_order_rejected(self):
        with pytest.raises(BDDError):
            BDDManager([])

    def test_canonicity_identical_functions_share_nodes(self):
        manager = BDDManager(["a", "b"])
        f1 = manager.var("a") & manager.var("b")
        f2 = manager.var("a") & manager.var("b")
        assert f1.node == f2.node

    def test_complemented_function_distinct(self):
        manager = BDDManager(["a"])
        assert (~manager.var("a")).node != manager.var("a").node

    def test_cross_manager_operations_rejected(self):
        m1, m2 = BDDManager(["a"]), BDDManager(["a"])
        with pytest.raises(BDDError):
            _ = m1.var("a") & m2.var("a")

    def test_terminal_triple_rejected(self):
        manager = BDDManager(["a"])
        with pytest.raises(BDDError):
            manager.node_triple(TRUE_NODE)


class TestOperations:
    def test_and_or_not_semantics(self):
        manager = BDDManager(["a", "b"])
        a, b = manager.var("a"), manager.var("b")
        for x in (False, True):
            for y in (False, True):
                env = {"a": x, "b": y}
                assert (a & b).evaluate(env) == (x and y)
                assert (a | b).evaluate(env) == (x or y)
                assert (~a).evaluate(env) == (not x)

    def test_ite_terminal_shortcuts(self):
        manager = BDDManager(["a", "b"])
        a = manager.var("a").node
        assert manager.ite(TRUE_NODE, a, FALSE_NODE) == a
        assert manager.ite(FALSE_NODE, a, TRUE_NODE) == TRUE_NODE
        assert manager.ite(a, TRUE_NODE, FALSE_NODE) == a
        assert manager.ite(a, a, a) == a

    def test_double_negation_restores_node(self):
        manager = BDDManager(["a", "b", "c"])
        f = (manager.var("a") & manager.var("b")) | manager.var("c")
        assert manager.negate(manager.negate(f.node)) == f.node

    def test_size_counts_internal_nodes(self):
        manager = BDDManager(["a", "b"])
        f = manager.var("a") & manager.var("b")
        assert f.size() == 2
        assert manager.true().size() == 0


class TestFaultTreeCompilation:
    def test_fps_compilation_matches_tree(self, fps_tree):
        from repro.bdd.ordering import variable_order

        manager = BDDManager(variable_order(fps_tree))
        function = manager.from_fault_tree(fps_tree)
        events = sorted(fps_tree.events_reachable_from_top())
        for assignment in all_assignments(events):
            assert function.evaluate(assignment) == fps_tree.evaluate(assignment)

    @settings(max_examples=15, deadline=None)
    @given(small_random_trees(min_events=4, max_events=7))
    def test_random_tree_compilation_matches_evaluation(self, tree):
        from repro.bdd.ordering import variable_order

        manager = BDDManager(variable_order(tree))
        function = manager.from_fault_tree(tree)
        events = sorted(tree.events_reachable_from_top())
        for assignment in all_assignments(events):
            assert function.evaluate(assignment) == tree.evaluate(assignment)
