"""Differential ranking: the ``maxsat`` top-k ranking equals the ``bdd`` one.

Probabilities come from a three-value palette, so optima tie often — at the
head of the ranking and at its ``top_k`` boundary.  Both ``maxsat`` routes
are checked: the cold portfolio and the warm incremental session a sweep's
batch uses.
"""

import random

import pytest

from repro.api import AnalysisSession
from repro.scenarios.sweep import SweepExecutor
from repro.workloads.generator import random_fault_tree

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
