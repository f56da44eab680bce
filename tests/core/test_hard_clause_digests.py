"""The hard clauses are pinned byte for byte.

Every clause list below is digested through the public assembler
(``tree.compiled().cnf`` and each ``Skeleton.cnf``) and compared with the
sha256 of the clauses the encoder produced when each gate shape was first
encoded as a formula and then relocated onto its children's literals.  The
clause generators of :mod:`repro.logic.tseitin` must reproduce them exactly:
same clauses, same order, same auxiliary variable numbering.
"""

import hashlib

import pytest

from repro.fta.gates import GateType
from repro.fta.tree import FaultTree
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES

from tests.conftest import k_of_n_ladder, voting_reuse_tree

#: One digest over every shape of a gate type up to arity 32 (every k for votes).
SHAPES = {
    "and": "aaa4dc4605c746a01a636da2b404dd86f3c89f62e7f0be5208feaaf48da5301c",
    "or": "ddbfc749042020fa6e50cfa2f7af2b35368dbf0458bb5b96c34d3ada43d78941",
    "voting": "18ae6674e3351545a3600dd08f892bc043c2f212884c7d75f17475803efcc14a",
}

#: Single wide gates over basic events.
WIDE = {
    "and-1000": "7a56a67ed418c78091f0a54c7e3e13573af0568d56f707f3105bed78cc1a1e88",
    "or-1000": "8305da001802e2b96569c582faf6d4b4c66ffd449f02c03318b7196ae06d58ea",
    "16-of-31": "4573d0b84afed44c26f3e6f85e4bda548d2db982e2ffef6660ce5bc31716cd99",
    "32-of-64": "f0a7936b4b51da1c2eb6bc79c83c9367f8970ea46d283abcd2803479d42a2ae1",
}

#: A tree's whole-structure clauses, then each skeleton's, in module order.
TREES = {
    "fps": "9912420959854da954fdf167656674070ad824f9fd7996a4ddc49e80341e553c",
    "pressure-tank": "34ab9fd20578ff79c31fe2259392c5cfe289cc3ca8f40ddf65725b9a93aaa9e7",
    "redundant-power-supply": "8d8dc488b660e4167c3e2ff0e827a38e9eb345c444632fcc08ec3bf60ff39ee5",
    "three-motor-system": "ea9acb19ede8ecf30c787056671f427953c632eb5879ee54b6ef3e126dff3734",
    "chemical-reactor": "959444ac651dba47879a4ebe155d24b72940557841332fdea2f5c64cdd5a5597",
    "railway-crossing": "e557832320d614af21f3c858337fdf062aecb15149185292a3c876a3256c0af7",
    "scada-water": "bb507ff42936a1cf6eeae55bcb7d2fa08072b41bf4e231638a1ce691b5657ce3",
    "data-center-power": "d9a5b5d0b513546250ec48968c7cef6bcfed796d7c0bfb721137084fa291990a",
    "aircraft-hydraulics": "4c315c44885902ec14913eb86d52c5536c61c28d359c98e6a252c37d684439da",
    "emergency-shutdown": "63f8feab07219481e796db1dd29f1808764e579b01cb464b08318871f5e84f7b",
    "e4-1000-1": "bc65b03e91d747efc489d5a47785127dde6fe96c9d8ca7a021c69769796ea471",
    "e4-2000-1": "f9eb196185e6913d4d20085e64a91ec97cd70c8eb3eb6749540d5c6821fed1da",
    "16-of-31-ladder": "8e680d266e713a0c9dba0b8a055a41e00811e857fcf452da71cf77c74b182677",
    "voting-reuse-100": "4c872fdd982039c97f1d7f25079d3abec4f5a2455d3f139c0bd83108cc93d6ea",
}


def _digest(cnf, digest=None):
    digest = digest or hashlib.sha256()
    for clause in cnf.clauses:
        digest.update(repr(tuple(clause)).encode())
    digest.update(repr((cnf.num_vars, sorted(cnf.event_vars.items()), cnf.root)).encode())
    return digest


def _gate_tree(gate_type, k, arity):
    tree = FaultTree(f"{gate_type.value}-{k}-of-{arity}")
    for index in range(arity):
        tree.add_basic_event(f"e{index}", 0.1)
    tree.add_gate("top", gate_type, [f"e{index}" for index in range(arity)], k=k)
    tree.set_top_event("top")
    return tree


def _tree_digest(tree):
    structure = tree.compiled()
    digest = _digest(structure.cnf)
    for skeleton in structure.modules:
        _digest(skeleton.cnf, digest)
    return digest.hexdigest()


def _shapes(gate_type, max_arity):
    for arity in range(1, max_arity + 1):
        if gate_type is GateType.VOTING:
            for k in range(1, arity + 1):
                yield k, arity
        else:
            yield None, arity


@pytest.mark.parametrize("gate_type", [GateType.AND, GateType.OR, GateType.VOTING])
def test_every_shape_up_to_arity_32(gate_type):
    digest = hashlib.sha256()
    for k, arity in _shapes(gate_type, 32):
        _digest(_gate_tree(gate_type, k, arity).compiled().cnf, digest)
    assert digest.hexdigest() == SHAPES[gate_type.value]


@pytest.mark.parametrize(
    "name, gate_type, k, arity",
    [
        ("and-1000", GateType.AND, None, 1000),
        ("or-1000", GateType.OR, None, 1000),
        ("16-of-31", GateType.VOTING, 16, 31),
        ("32-of-64", GateType.VOTING, 32, 64),
    ],
)
def test_wide_gates(name, gate_type, k, arity):
    assert _digest(_gate_tree(gate_type, k, arity).compiled().cnf).hexdigest() == WIDE[name]


def _library_trees():
    first_names = {}
    for name, factory in NAMED_TREES.items():
        first_names.setdefault(factory, name)
    return {name: factory for factory, name in first_names.items()}


@pytest.mark.parametrize("name", sorted(_library_trees()))
def test_library_trees(name):
    assert _tree_digest(_library_trees()[name]()) == TREES[name]


@pytest.mark.parametrize("events", [1000, 2000])
def test_e4_trees(events):
    tree = random_fault_tree(
        num_basic_events=events, seed=1, voting_ratio=0.05, event_reuse=0.05
    )
    assert _tree_digest(tree) == TREES[f"e4-{events}-1"]


def test_16_of_31_ladder():
    assert _tree_digest(k_of_n_ladder(31, 16)) == TREES["16-of-31-ladder"]


def test_voting_reuse_trees():
    """Single-child gates and shared nodes hand a gate repeated literals."""
    digest = hashlib.sha256()
    for seed in range(100):
        digest.update(_tree_digest(voting_reuse_tree(3 + seed % 8, seed)).encode())
    assert digest.hexdigest() == TREES["voting-reuse-100"]
