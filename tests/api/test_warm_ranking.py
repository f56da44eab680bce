"""A warm ranking equals a cold one.

``MaxSATBackend.run_batch`` keeps one module walk per structure
(:class:`~repro.core.pipeline.ModuleOptima`) at the request's ``top_k``, so
a probability redraw re-walks only the modules above its changed events.
Every report it gives must equal a fresh ``run``'s byte for byte in
canonical form, at one cut set and at longer rankings alike.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings

from repro.api import AnalysisSession
from repro.api.report import AnalysisRequest
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.workloads.generator import random_fault_tree
from tests.conftest import searched_skeletons, voting_reuse_trees

TOP_KS = (1, 3, 10)


def _request(top_k):
    return AnalysisRequest.create(("mpmcs", "ranking"), backend="maxsat", top_k=top_k)


def _canonical(report):
    return json.dumps(report.to_canonical_dict(), sort_keys=True)


def _redraws(tree, seed, draws=6, names=None):
    """``tree`` and ``draws - 1`` probability-only copies, each redrawing one,
    a few or all of ``names`` (every event by default) log-uniformly in
    [1e-5, 0.2] from the copy before it."""
    rng = random.Random(seed)
    names = sorted(tree.event_names if names is None else names)
    trees = [tree]
    for draw in range(1, draws):
        copy = trees[-1].copy()
        changed = (1, max(1, len(names) // 4), len(names))[draw % 3]
        for name in rng.sample(names, changed):
            copy.set_probability(name, math.exp(rng.uniform(math.log(1e-5), math.log(0.2))))
        trees.append(copy)
    return trees


def _assert_warm_equals_cold(trees, top_k):
    request = _request(top_k)
    warm = list(AnalysisSession().run_batch(trees, request))
    for step, (tree, report) in enumerate(zip(trees, warm)):
        assert report.profile["warm_solves"] == 1, step
        cold = AnalysisSession().run(tree, request)
        assert _canonical(report) == _canonical(cold), (top_k, step)
        assert report.mpmcs.events == report.ranking[0].events, (top_k, step)


@pytest.mark.parametrize("top_k", TOP_KS)
@settings(max_examples=30, deadline=None)
@given(voting_reuse_trees(min_events=10, max_events=40))
def test_voting_reuse_redraws(top_k, tree):
    _assert_warm_equals_cold(_redraws(tree, tree.name), top_k)


@pytest.mark.parametrize("top_k", TOP_KS)
def test_e4_redraws(top_k):
    tree = random_fault_tree(num_basic_events=600, seed=1, voting_ratio=0.05, event_reuse=0.05)
    _assert_warm_equals_cold(_redraws(tree, top_k), top_k)


def _beside_a_search():
    """``top = OR(vote, side)``: ``vote`` is a 2-of-3 written as an OR of
    ANDs over shared events, so its skeleton needs a search; ``side`` is an
    AND of two events of its own, a module taken by rule."""
    tree = FaultTree("beside-a-search")
    for index, name in enumerate(("a", "b", "c", "x", "y")):
        tree.add_basic_event(name, 0.01 * (index + 1))
    tree.add_gate("ab", GateType.AND, ["a", "b"])
    tree.add_gate("bc", GateType.AND, ["b", "c"])
    tree.add_gate("ac", GateType.AND, ["a", "c"])
    tree.add_gate("vote", GateType.OR, ["ab", "bc", "ac"])
    tree.add_gate("side", GateType.AND, ["x", "y"])
    tree.add_gate("top", GateType.OR, ["vote", "side"])
    tree.set_top_event("top")
    tree.validate()
    return tree


def test_redraws_under_rule_modules_make_no_session_solve(monkeypatch):
    """A kept top-3 walk re-walks only the modules above a change: redraws
    of the events beside the searched skeleton solve nothing after the
    first tree, and still equal cold runs."""
    tree = _beside_a_search()
    (skeleton,) = searched_skeletons(tree)
    assert skeleton.root == "vote"
    solves = []
    solve = IncrementalMaxSATSession.solve

    def counting(session, *args, **kwargs):
        solves.append(session.skeleton.root)
        return solve(session, *args, **kwargs)

    monkeypatch.setattr(IncrementalMaxSATSession, "solve", counting)
    trees = _redraws(tree, 0, draws=8, names=("x", "y"))
    reports = AnalysisSession().run_batch(trees, _request(3))
    first = next(reports)
    assert solves and set(solves) == {"vote"}
    solves.clear()
    rest = list(reports)
    assert solves == []
    assert {report.ranking[0].events for report in [first] + rest} > {("x", "y")}
    for tree, report in zip(trees, [first] + rest):
        assert _canonical(report) == _canonical(AnalysisSession().run(tree, _request(3)))
