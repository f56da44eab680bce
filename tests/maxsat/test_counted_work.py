"""Counted work of the whole-tree engines, and the two callers of the
implicit hitting set loop compared skeleton by skeleton.

The pins are ``(engine, SAT calls)`` of :class:`HittingSetEngine` alone and
of :class:`RC2Engine` on the whole-tree encoding of E5's seven trees and of
the two votes on which RC2 hands its solve over to the hitting set engine
(``rc2+hitting-set``).  Both engines must also return the module route's
cut set at its integer cost.
"""

import pytest
from hypothesis import given, settings

from repro.core.encoder import encode_mpmcs, event_weights
from repro.core.pipeline import MPMCSSolver
from repro.maxsat import HittingSetEngine, MaxSATStatus, RC2Engine
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import fire_protection_system, redundant_power_supply

from tests.conftest import (
    flat_vote,
    k_of_n_ladder,
    searched_skeletons,
    voting_reuse_tree,
    voting_reuse_trees,
)

#: Tree factory, then ``(engine, SAT calls)`` of HittingSetEngine and of RC2Engine.
PINS = [
    (fire_protection_system, ("hitting-set", 4), ("rc2", 4)),
    (redundant_power_supply, ("hitting-set", 4), ("rc2", 6)),
    (
        lambda: random_fault_tree(num_basic_events=150, seed=1, voting_ratio=0.0),
        ("hitting-set", 3),
        ("rc2", 3),
    ),
    (
        lambda: random_fault_tree(num_basic_events=150, seed=2, voting_ratio=0.3),
        ("hitting-set", 3),
        ("rc2", 3),
    ),
    (lambda: random_fault_tree(num_basic_events=400, seed=3), ("hitting-set", 6), ("rc2", 6)),
    (
        lambda: random_fault_tree(num_basic_events=120, seed=4, and_ratio=0.7, or_ratio=0.3),
        ("hitting-set", 33),
        ("rc2", 33),
    ),
    (lambda: voting_reuse_tree(40, 27), ("hitting-set", 31), ("rc2+hitting-set", 88)),
    (lambda: flat_vote(9, 5), ("hitting-set", 127), ("rc2+hitting-set", 153)),
    (lambda: k_of_n_ladder(9, 5), ("hitting-set", 127), ("rc2+hitting-set", 162)),
]


@pytest.mark.parametrize(
    "factory, hitting_set_pin, rc2_pin",
    PINS,
    ids=[factory().name for factory, *_ in PINS],
)
def test_whole_tree_engines_keep_their_counted_work(factory, hitting_set_pin, rc2_pin):
    tree = factory()
    expected = MPMCSSolver().solve(tree).events
    _, objective = event_weights(tree)
    for engine, pin in ((HittingSetEngine(), hitting_set_pin), (RC2Engine(), rc2_pin)):
        encoding = encode_mpmcs(tree)
        result = engine.solve(encoding.instance.copy())
        assert result.status is MaxSATStatus.OPTIMUM
        assert (result.engine, result.sat_calls) == pin
        assert encoding.cut_set_from_model(result.model) == expected
        assert result.cost == sum(objective[event] for event in expected)


@settings(max_examples=60, deadline=None)
@given(voting_reuse_trees(4, 12))
def test_a_session_and_the_engine_solve_each_skeleton_alike(tree):
    """A fresh session with no seeded core, and the hitting set engine on the
    skeleton's hard clauses with one unit soft clause per leaf, return the
    same leaves under the same integer objective."""
    for skeleton in searched_skeletons(tree):
        skeleton.cores = ()
        session = IncrementalMaxSATSession(skeleton)
        leaves = list(session.event_vars)
        # Powers of two: no two leaf sets tie.
        value = {leaf: (1 << column, 0.0) for column, leaf in enumerate(leaves)}
        instance = skeleton.cnf.instance.copy()
        for leaf, var in session.event_vars.items():
            instance.add_soft([-var], 1.0, label=leaf, scaled_weight=value[leaf][0])
        result = HittingSetEngine().solve(instance)
        assert result.status is MaxSATStatus.OPTIMUM
        from_engine = [leaf for leaf, var in session.event_vars.items() if result.model.get(var)]
        assert session.solve(value) == from_engine
