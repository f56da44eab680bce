"""Unit tests for independent-module detection."""

from typing import Dict, List, Set

import pytest
from hypothesis import given, settings

from repro.analysis.modules import Module, find_modules, modularisation_report
from repro.exceptions import FaultTreeError
from repro.fta.builder import FaultTreeBuilder
from repro.fta.tree import FaultTree
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES, fire_protection_system, three_motor_system

from tests.conftest import or_chain, voting_reuse_trees


def quadratic_find_modules(tree: FaultTree, *, include_top: bool = True) -> List[Module]:
    """The parent-counting definition, one traversal per gate: the oracle.

    A gate ``g`` is a module when every strict descendant of ``g`` has all
    of its parents inside the sub-tree rooted at ``g``.
    """
    tree.validate()
    parents: Dict[str, Set[str]] = {name: set() for name in tree.event_names}
    parents.update({name: set() for name in tree.gate_names})
    for gate in tree.gates.values():
        for child in gate.children:
            parents[child].add(gate.name)
    modules: List[Module] = []
    for gate_name in tree.gate_names:
        if gate_name == tree.top_event and not include_top:
            continue
        descendants = set(tree.reachable_from(gate_name))
        if all(parents[node] <= descendants for node in descendants - {gate_name}):
            modules.append(
                Module(
                    gate=gate_name,
                    events=frozenset(name for name in descendants if tree.is_event(name)),
                    gates=frozenset(name for name in descendants if tree.is_gate(name)),
                )
            )
    modules.sort(key=lambda module: (-module.size, module.gate))
    return modules


class TestAgainstTheQuadraticDefinition:
    """The linear visit-date algorithm returns exactly the old modules."""

    @pytest.mark.parametrize("name", sorted(NAMED_TREES))
    def test_library_trees(self, name):
        tree = NAMED_TREES[name]()
        assert find_modules(tree) == quadratic_find_modules(tree)
        assert find_modules(tree, include_top=False) == quadratic_find_modules(
            tree, include_top=False
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_random_trees_with_reuse(self, seed):
        tree = random_fault_tree(
            num_basic_events=5 + seed, seed=seed, voting_ratio=0.2, event_reuse=0.05 * (seed % 5)
        )
        assert find_modules(tree) == quadratic_find_modules(tree)

    @settings(max_examples=60, deadline=None)
    @given(voting_reuse_trees(min_events=1, max_events=9))
    def test_voting_reuse_trees(self, tree):
        assert find_modules(tree) == quadratic_find_modules(tree)

    def test_top_basic_event_has_no_module(self):
        tree = FaultTree("single", top_event="a")
        tree.add_basic_event("a", 0.1)
        assert find_modules(tree) == quadratic_find_modules(tree) == []

    def test_deep_chain_needs_no_recursion(self):
        tree = or_chain(1500)
        assert len(find_modules(tree)) == 1500


class TestFindModules:
    def test_pure_tree_every_gate_is_a_module(self):
        # The FPS example is a strict tree (no shared nodes), so every gate
        # roots a module.
        tree = fire_protection_system()
        modules = find_modules(tree)
        assert {module.gate for module in modules} == set(tree.gate_names)

    def test_top_gate_is_always_a_module(self):
        tree = fire_protection_system()
        modules = find_modules(tree)
        assert modules[0].gate == tree.top_event
        assert modules[0].size == tree.num_nodes

    def test_include_top_false_drops_the_top_gate(self):
        tree = fire_protection_system()
        modules = find_modules(tree, include_top=False)
        assert tree.top_event not in {module.gate for module in modules}

    def test_shared_events_break_modularity(self):
        # In the three-motor system, control_circuit and power_supply feed all
        # three motor gates, so none of the motor gates is a module.
        tree = three_motor_system()
        modules = find_modules(tree)
        gates = {module.gate for module in modules}
        assert gates == {"all_motors_down"}

    def test_partial_sharing(self):
        tree = (
            FaultTreeBuilder("partial")
            .basic_event("a", 0.1)
            .basic_event("b", 0.1)
            .basic_event("c", 0.1)
            .basic_event("shared", 0.1)
            .and_gate("g1", ["a", "shared"])
            .and_gate("g2", ["b", "shared"])
            .or_gate("g3", ["c"])
            .or_gate("top", ["g1", "g2", "g3"])
            .top("top")
            .build()
        )
        modules = {module.gate for module in find_modules(tree)}
        # g1 and g2 share the event "shared", so neither is a module; g3 is.
        assert "g1" not in modules
        assert "g2" not in modules
        assert "g3" in modules
        assert "top" in modules

    def test_module_contents(self):
        tree = fire_protection_system()
        by_gate = {module.gate: module for module in find_modules(tree)}
        detection = by_gate["detection_failure"]
        assert detection.events == frozenset({"x1", "x2"})
        assert detection.gates == frozenset({"detection_failure"})
        assert detection.size == 3

    def test_invalid_tree_is_rejected(self):
        tree = FaultTree("broken")
        tree.add_basic_event("a", 0.1)
        with pytest.raises(FaultTreeError):
            find_modules(tree)


class TestModularisationReport:
    def test_report_fields(self):
        tree = fire_protection_system()
        report = modularisation_report(tree)
        assert report["tree"] == "fire-protection-system"
        assert report["num_gates"] == 5
        assert report["num_modules"] == 5
        assert report["num_proper_modules"] == 4
        assert 0.0 < report["module_fraction"] <= 1.0
        assert report["largest_proper_module"] == "suppression_failure"

    def test_report_on_dag_tree(self):
        report = modularisation_report(three_motor_system())
        assert report["num_proper_modules"] == 0
        assert report["largest_proper_module"] == ""
        assert report["largest_proper_module_size"] == 0
