"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Dict, List, Mapping, Optional, Tuple

import pytest
from hypothesis import strategies as st

from repro.core.encoder import weigh_events
from repro.fta.builder import FaultTreeBuilder
from repro.fta.compiled import Skeleton
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree
from repro.logic.formula import And, AtLeast, Formula, Not, Or, Var
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import (
    fire_protection_system,
    pressure_tank,
    redundant_power_supply,
    three_motor_system,
)


def whole_tree_payload_hash(tree: FaultTree) -> str:
    """SHA-256 of the tree's top event, gates and event probabilities.

    The bytes of the retired whole-tree cache key: persistent stores may
    still hold entries under it, and the pinned generator digests use it.
    """
    events = sorted((name, event.probability.hex()) for name, event in tree.events.items())
    gates = sorted(
        (gate.name, gate.gate_type.value, gate.k if gate.k is not None else -1, list(gate.children))
        for gate in tree.gates.values()
    )
    payload = json.dumps(
        {"top": tree.top_event, "events": events, "gates": gates},
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- fixtures


@pytest.fixture
def fps_tree() -> FaultTree:
    """The paper's Fig. 1 fire-protection-system example."""
    return fire_protection_system()


@pytest.fixture
def pressure_tank_tree() -> FaultTree:
    return pressure_tank()


@pytest.fixture
def voting_tree() -> FaultTree:
    """A tree containing a 2-of-3 voting gate."""
    return redundant_power_supply()


@pytest.fixture
def shared_events_tree() -> FaultTree:
    """A DAG-shaped tree with events shared between gates."""
    return three_motor_system()


@pytest.fixture(params=["fps", "pressure-tank", "voting", "shared"])
def any_library_tree(request) -> FaultTree:
    """Parametrised fixture cycling through every canonical tree."""
    return {
        "fps": fire_protection_system,
        "pressure-tank": pressure_tank,
        "voting": redundant_power_supply,
        "shared": three_motor_system,
    }[request.param]()


# ------------------------------------------------------------------ hypothesis strategies


def small_random_trees(
    min_events: int = 4, max_events: int = 10, voting_ratio: float = 0.2
) -> st.SearchStrategy[FaultTree]:
    """Strategy producing small random fault trees (safe for brute force)."""
    return st.builds(
        lambda n, seed: random_fault_tree(
            num_basic_events=n, seed=seed, voting_ratio=voting_ratio
        ),
        st.integers(min_value=min_events, max_value=max_events),
        st.integers(min_value=0, max_value=10_000),
    )


def voting_reuse_tree(num_events: int, seed: int) -> FaultTree:
    """A seeded random tree of AND, OR and voting gates over shared subtrees.

    Unlike :func:`random_fault_tree`, a voting gate's ``k`` may be 1 or its
    arity, a gate may have a single child (so two children of one gate can
    share a literal), and a gate may reuse any node placed before it.
    """
    rng = random.Random(seed)
    tree = FaultTree(f"voting-reuse-{num_events}-seed{seed}")
    for index in range(num_events):
        tree.add_basic_event(f"e{index}", rng.choice([0.05, 0.1, 0.2, rng.uniform(1e-3, 0.5)]))
    open_nodes = list(tree.event_names)
    placed = list(open_nodes)
    while len(open_nodes) > 1 or len(placed) == num_events:
        arity = min(rng.randint(1, 4), len(open_nodes))
        children = [open_nodes.pop(rng.randrange(len(open_nodes))) for _ in range(arity)]
        shared = [node for node in placed if node not in children]
        while shared and rng.random() < 0.3:
            children.append(shared.pop(rng.randrange(len(shared))))
        name = f"g{len(placed) - num_events + 1}"
        kind = rng.choice(["and", "or", "1-of-n", "n-of-n", "k-of-n"])
        if kind in ("and", "or"):
            tree.add_gate(name, GateType.AND if kind == "and" else GateType.OR, children)
        else:
            arity = len(children)
            k = {"1-of-n": 1, "n-of-n": arity}.get(kind) or rng.randint(1, arity)
            tree.add_gate(name, GateType.VOTING, children, k=k)
        open_nodes.insert(rng.randrange(len(open_nodes) + 1), name)
        placed.append(name)
    tree.set_top_event(open_nodes[0])
    tree.validate()
    return tree


def k_of_n_ladder(width: int, k: int) -> FaultTree:
    """k-of-``width`` vote over OR pairs, a sensor and an actuator per channel
    (a common pattern in redundant architectures such as 2-out-of-3 channel
    voting); the voting benchmark's ladder."""
    builder = FaultTreeBuilder(f"{k}-of-{width}-ladder")
    for index in range(width):
        builder.basic_event(f"sensor_{index}", 0.01 + index * 1e-4)
        builder.basic_event(f"actuator_{index}", 0.005 + index * 1e-4)
        builder.or_gate(f"channel_{index}", [f"sensor_{index}", f"actuator_{index}"])
    builder.voting_gate("top", k, [f"channel_{index}" for index in range(width)])
    return builder.top("top").build()


def flat_vote(width: int, k: int) -> FaultTree:
    """k-of-``width`` vote over basic events whose probabilities differ by 1e-4."""
    builder = FaultTreeBuilder(f"{k}-of-{width}-vote")
    for index in range(width):
        builder.basic_event(f"e{index:02d}", 0.01 + index * 1e-4)
    builder.voting_gate("top", k, [f"e{index:02d}" for index in range(width)])
    return builder.top("top").build()


def or_chain(depth: int) -> FaultTree:
    """``g0 = OR(e0, g1)``, …, ``g{depth-1} = OR(e{depth-1}, e{depth})``."""
    builder = FaultTreeBuilder(f"or-chain-{depth}")
    for level in range(depth + 1):
        builder.basic_event(f"e{level}", 0.01)
    for level in range(depth - 1):
        builder.or_gate(f"g{level}", [f"e{level}", f"g{level + 1}"])
    builder.or_gate(f"g{depth - 1}", [f"e{depth - 1}", f"e{depth}"])
    return builder.top("g0").build()


def voting_reuse_trees(
    min_events: int = 3, max_events: int = 8
) -> st.SearchStrategy[FaultTree]:
    """Strategy over :func:`voting_reuse_tree`."""
    return st.builds(
        voting_reuse_tree,
        st.integers(min_value=min_events, max_value=max_events),
        st.integers(min_value=0, max_value=10_000),
    )


def variable_names(max_vars: int = 5) -> st.SearchStrategy[str]:
    return st.sampled_from([f"v{i}" for i in range(1, max_vars + 1)])


def formulas(max_depth: int = 4, max_vars: int = 5) -> st.SearchStrategy[Formula]:
    """Strategy producing random Boolean formulas over a small variable pool."""
    leaves = st.builds(Var, variable_names(max_vars))

    def extend(children: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
        operand_lists = st.lists(children, min_size=1, max_size=3)
        return st.one_of(
            st.builds(Not, children),
            st.builds(lambda ops: And(tuple(ops)), operand_lists),
            st.builds(lambda ops: Or(tuple(ops)), operand_lists),
            st.builds(
                lambda ops, k: AtLeast(min(k, len(ops)), tuple(ops)),
                st.lists(children, min_size=1, max_size=3),
                st.integers(min_value=1, max_value=3),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=2**max_depth)


def cnf_clause_lists(
    max_vars: int = 6, max_clauses: int = 12
) -> st.SearchStrategy[List[List[int]]]:
    """Strategy producing random CNF instances as lists of literal lists."""
    literal = st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(literal, min_size=1, max_size=4)
    return st.lists(clause, min_size=1, max_size=max_clauses)


# ----------------------------------------------------------------------------- helpers


def all_assignments(names: List[str]) -> List[Dict[str, bool]]:
    """Every total truth assignment over ``names`` (use only for small sets)."""
    result = []
    for bits in itertools.product([False, True], repeat=len(names)):
        result.append(dict(zip(names, bits)))
    return result


@pytest.fixture
def assemblies(monkeypatch) -> list:
    """The structures whose hard clauses get assembled, one entry per call of
    :func:`repro.core.encoder.assemble_structure_cnf`."""
    from repro.core import encoder

    calls: list = []
    original = encoder.assemble_structure_cnf

    def counting(structure):
        calls.append(structure)
        return original(structure)

    monkeypatch.setattr(encoder, "assemble_structure_cnf", counting)
    return calls


@pytest.fixture
def skeleton_assemblies(monkeypatch) -> list:
    """The skeletons whose hard clauses get assembled, one entry per call of
    :func:`repro.core.encoder.assemble_skeleton_cnf`."""
    from repro.core import encoder

    calls: list = []
    original = encoder.assemble_skeleton_cnf

    def counting(skeleton):
        calls.append(skeleton)
        return original(skeleton)

    monkeypatch.setattr(encoder, "assemble_skeleton_cnf", counting)
    return calls


def searched_skeletons(tree: FaultTree) -> list:
    """The skeletons of ``tree``'s modules that need a search, bottom-up."""
    return [skeleton for skeleton in tree.compiled().modules if not skeleton.by_rule]


def whole_tree_skeleton(tree: FaultTree) -> Skeleton:
    """A skeleton of ``tree``'s whole structure: every gate kept, every basic
    event a leaf, so a session over it solves the whole tree."""
    structure = tree.compiled()
    return Skeleton(structure.order, structure.gates)


def leaf_values(
    tree: FaultTree, probabilities: Optional[Mapping[str, float]] = None
) -> Dict[str, Tuple[int, float]]:
    """Each basic event's objective and weight, under ``tree``'s
    probabilities or the ``probabilities`` given: a session reads only the
    objective, the first item of the entry
    :class:`~repro.core.pipeline.ModuleOptima` feeds it."""
    if probabilities is None:
        probabilities = tree.probabilities()
    return {
        name: (objective, weight)
        for name, weight, objective in weigh_events(probabilities.items(), tree.compiled())
    }


def brute_force_cnf_satisfiable(clauses: List[List[int]]) -> bool:
    """Tiny reference SAT check by exhaustive enumeration."""
    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses
        ):
            return True
    return False
