"""Differential ranking: the ``maxsat`` top-k ranking equals the ``bdd`` one.

Probabilities come from a three-value palette, so optima tie often — at the
head of the ranking and at its ``top_k`` boundary.  Both ``maxsat`` routes
are checked: the cold portfolio and the warm incremental session a sweep's
batch uses.  Two library trees with near-tied cut sets check every cut-set
backend against ``maxsat``.
"""

import random

import pytest

from repro.api import AnalysisSession
from repro.scenarios.sweep import SweepExecutor
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES
from tests.conftest import voting_reuse_tree

TOP_KS = (1, 2, 3, 5)
PALETTE = (0.05, 0.1, 0.2)


def _tied_tree(seed):
    tree = random_fault_tree(num_basic_events=8 + seed % 10, seed=seed, voting_ratio=0.2)
    rng = random.Random(seed)
    for name in sorted(tree.events):
        tree.set_probability(name, rng.choice(PALETTE))
    return tree


def _events(report):
    return [entry.events for entry in report.ranking]


@pytest.mark.parametrize("seed", range(60))
def test_maxsat_ranking_matches_bdd(seed):
    tree = _tied_tree(seed)
    session = AnalysisSession()
    warm = SweepExecutor(AnalysisSession(), backend="maxsat")
    analyses = warm.prepare_analyses(("ranking",))
    for top_k in TOP_KS:
        expected = _events(session.analyze(tree, ["ranking"], backend="bdd", top_k=top_k))
        cold = session.analyze(tree, ["ranking"], backend="maxsat", top_k=top_k)
        assert _events(cold) == expected, ("cold", top_k)
        (report,) = warm.analyze_batch([tree], analyses, top_k=top_k)
        assert _events(report) == expected, ("warm", top_k)


@pytest.mark.parametrize("name", ["chemical-reactor", "emergency-shutdown"])
@pytest.mark.parametrize("backend", ["mocus", "bdd", "brute-force"])
def test_cut_set_backends_rank_in_the_objective_order(name, backend):
    """Near-tied cut sets, whose float products differ in the last place or
    not at all, rank as the MaxSAT objective orders them: by scaled ``-log``
    cost, then size, then names."""
    tree = NAMED_TREES[name]()
    session = AnalysisSession()
    for top_k in (1, 3, 5):
        expected = _events(session.analyze(tree, ["ranking"], backend="maxsat", top_k=top_k))
        report = session.analyze(tree, ["ranking"], backend=backend, top_k=top_k)
        assert _events(report) == expected, top_k


@pytest.mark.parametrize(
    "tree",
    [voting_reuse_tree(6, 3528), NAMED_TREES["chemical-reactor"](), NAMED_TREES["emergency-shutdown"]()],
    ids=["voting-reuse-6-3528", "chemical-reactor", "emergency-shutdown"],
)
@pytest.mark.parametrize("backend", ["mocus", "bdd", "brute-force"])
def test_near_tie_mpmcs_matches_across_backends(tree, backend):
    """Every backend's MPMCS is the MaxSAT objective's optimum.  On the
    voting/reuse tree, {e0, e1, e4} and {e0, e2, e4} have equal float
    products and the objective prefers the first; the ``bdd`` backend's
    dynamic programme once returned the second, and later reported the
    product in diagram order, one ulp off the sorted-name product."""
    expected = AnalysisSession().analyze(tree, ["mpmcs"], backend="maxsat").mpmcs
    report = AnalysisSession().analyze(tree, ["mpmcs"], backend=backend).mpmcs
    assert report.events == expected.events
    assert report.cost == expected.cost
    assert report.probability == expected.probability


@pytest.mark.parametrize(
    "tree",
    [factory() for _, factory in sorted(NAMED_TREES.items())]
    + [voting_reuse_tree(3 + seed % 6, seed) for seed in range(40)],
    ids=lambda tree: tree.name,
)
def test_bdd_mpmcs_is_bit_equal_to_maxsat(tree):
    expected = AnalysisSession().analyze(tree, ["mpmcs"], backend="maxsat").mpmcs
    report = AnalysisSession().analyze(tree, ["mpmcs"], backend="bdd").mpmcs
    assert (report.events, report.cost, report.probability) == (
        expected.events,
        expected.cost,
        expected.probability,
    )
