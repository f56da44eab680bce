"""E8 — Top-k cut-set ranking: iterated MaxSAT with blocking clauses.

The paper computes the single MPMCS; ranking the k most probable minimal cut
sets is the natural extension used for fault prioritisation (Section IV).
This benchmark measures the iterated-MaxSAT enumeration on the paper's example
and on larger random trees, and checks the ranking against full MOCUS
enumeration wherever the latter is feasible.  The default solver ranks
module by module, with blocked solves of one incremental session per
searched skeleton; its top 10 on two trees with shared subtrees must equal
RC2's blocked whole-tree solves, with at most 10 solves per session.
"""

import time
from collections import Counter

import pytest

from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.core.pipeline import MPMCSSolver
from repro.core.topk import enumerate_mpmcs
from repro.maxsat import RC2Engine
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.workloads.generator import GeneratorConfig, random_fault_tree
from repro.workloads.library import fire_protection_system

from benchmarks.conftest import emit
from tests.conftest import searched_skeletons, voting_reuse_tree

#: The full probability ranking of the FPS tree's five minimal cut sets.
FPS_RANKING = [
    (("x1", "x2"), 0.02),
    (("x5", "x6"), 0.005),
    (("x5", "x7"), 0.0025),
    (("x4",), 0.002),
    (("x3",), 0.001),
]


def test_bench_topk_fps_full_ranking(benchmark):
    tree = fire_protection_system()
    solver = MPMCSSolver(single_engine=RC2Engine())

    ranking = benchmark(enumerate_mpmcs, tree, 5, solver=solver)

    rows = []
    for entry, (expected_events, expected_probability) in zip(ranking, FPS_RANKING):
        rows.append(
            f"#{entry.rank}: {{{', '.join(entry.events)}}}  p={entry.probability:.6g}"
        )
        assert entry.events == expected_events
        assert entry.probability == pytest.approx(expected_probability, rel=1e-9)
    emit("E8 — FPS tree: top-5 minimal cut sets by probability (iterated MaxSAT)", rows)


@pytest.mark.parametrize("num_events,k", [(60, 5), (150, 10)], ids=["60ev-top5", "150ev-top10"])
def test_bench_topk_random_trees(benchmark, num_events, k):
    tree = random_fault_tree(GeneratorConfig(num_basic_events=num_events, seed=num_events))
    solver = MPMCSSolver(single_engine=RC2Engine())

    ranking = benchmark(enumerate_mpmcs, tree, k, solver=solver)

    # Probabilities must be non-increasing, all sets minimal and distinct.
    probabilities = [entry.probability for entry in ranking]
    assert probabilities == sorted(probabilities, reverse=True)
    assert len({entry.events for entry in ranking}) == len(ranking)
    for entry in ranking:
        assert tree.is_minimal_cut_set(entry.events)

    # Where full enumeration is possible, the ranking prefix must match.
    try:
        collection = mocus_minimal_cut_sets(tree, max_candidates=100_000)
    except Exception:
        collection = None
    rows = [
        f"#{entry.rank}: p={entry.probability:.4e} size={entry.size}" for entry in ranking
    ]
    if collection is not None:
        reference = collection.ranked()[: len(ranking)]
        for entry, (cut_set, probability) in zip(ranking, reference):
            assert entry.probability == pytest.approx(probability, rel=1e-9)
        rows.append(f"(verified against full MOCUS enumeration of {len(collection)} cut sets)")
    emit(
        f"E8 — random tree ({num_events} events): top-{k} cut sets via blocking clauses",
        rows,
    )


@pytest.mark.parametrize(
    "factory",
    [
        lambda: voting_reuse_tree(40, 27),
        lambda: random_fault_tree(
            num_basic_events=1000, seed=1, voting_ratio=0.05, event_reuse=0.05
        ),
    ],
    ids=["voting-reuse-40-27", "e4-1000-1"],
)
def test_bench_topk_default_solver_matches_the_whole_tree_oracle(factory, monkeypatch):
    tree = factory()
    solves = []
    solve = IncrementalMaxSATSession.solve

    def counting(self, *args, **kwargs):
        solves.append(self)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(IncrementalMaxSATSession, "solve", counting)
    start = time.perf_counter()
    ranking = enumerate_mpmcs(tree, 10)
    elapsed = time.perf_counter() - start
    monkeypatch.undo()
    # The solves of one skeleton share its session, which ``solves`` keeps alive.
    per_skeleton = list(Counter(map(id, solves)).values())
    assert len(per_skeleton) == len(searched_skeletons(tree))
    assert max(per_skeleton) <= 10

    start = time.perf_counter()
    oracle = enumerate_mpmcs(tree, 10, solver=MPMCSSolver(single_engine=RC2Engine()))
    oracle_elapsed = time.perf_counter() - start
    assert ranking == oracle
    emit(
        f"E8 — {tree.name}: top-10 by skeleton (default solver) vs whole tree (RC2)",
        [
            f"skeleton solves per searched skeleton: {per_skeleton}",
            f"default solver {elapsed:.3f}s, RC2 blocked whole-tree solves {oracle_elapsed:.3f}s",
        ],
    )
