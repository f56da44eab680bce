"""E7 — Voting (k-of-n) gates: the paper's announced extension.

The paper's future work plans "extending our approach to include additional
operators such as voting gates".  The reproduction implements them end to end
(model, sequential-counter Tseitin encoding, MOCUS/BDD expansion), and this
benchmark measures the pipeline on voting-heavy trees and checks the results
against the BDD baseline.

The ladder cases solve with RC2 alone, one whole-tree encoding; the 8-of-15
one stalls (a known RC2 weakness on voting gates).  The facade cases run
``MPMCSSolver()``, which solves a vote over independent modules by rule,
without a SAT call, and rank its top 10 through the facade, again without a
SAT call.
"""

import time

import pytest

from repro.api import AnalysisSession
from repro.bdd.probability import bdd_mpmcs
from repro.core.encoder import event_weights
from repro.core.pipeline import MPMCSSolver
from repro.maxsat import RC2Engine
from repro.sat.cdcl import CDCLSolver
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import redundant_power_supply

from benchmarks.conftest import emit
from tests.conftest import flat_vote, k_of_n_ladder


def test_bench_voting_gate_library_tree(benchmark):
    tree = redundant_power_supply()
    solver = MPMCSSolver(single_engine=RC2Engine())

    result = benchmark(solver.solve, tree)

    reference_events, reference_probability = bdd_mpmcs(tree)
    assert result.probability == pytest.approx(reference_probability, rel=1e-9)
    assert result.probability == pytest.approx(0.004 * 0.004)
    emit(
        "E7 — voting gates: redundant power supply (2-of-3 feeders)",
        [
            f"MPMCS = {{{', '.join(result.events)}}}  P = {result.probability:.3e}  "
            f"(BDD baseline agrees: {reference_probability:.3e})"
        ],
    )


@pytest.mark.parametrize("width,k", [(5, 3), (9, 5), (15, 8)], ids=["3of5", "5of9", "8of15"])
def test_bench_voting_gate_ladders(benchmark, width, k):
    tree = k_of_n_ladder(width, k)
    solver = MPMCSSolver(single_engine=RC2Engine())

    result = benchmark(solver.solve, tree)

    reference_events, reference_probability = bdd_mpmcs(tree)
    assert result.probability == pytest.approx(reference_probability, rel=1e-9)
    assert len(result.events) == k  # one cheapest component per selected channel
    assert tree.is_minimal_cut_set(result.events)


@pytest.mark.parametrize(
    "build",
    [lambda: k_of_n_ladder(15, 8), lambda: k_of_n_ladder(31, 16), lambda: flat_vote(15, 8)],
    ids=["ladder-8of15", "ladder-16of31", "flat-8of15"],
)
def test_bench_voting_gate_facade(benchmark, build, monkeypatch):
    tree = build()
    solver = MPMCSSolver()

    result = benchmark(solver.solve, tree)

    reference_events, reference_probability = bdd_mpmcs(tree)
    assert result.events == tuple(sorted(reference_events))
    assert result.probability == pytest.approx(reference_probability, rel=1e-9)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        solver.solve(tree)
        best = min(best, time.perf_counter() - start)
    assert best <= 0.010, f"{tree.name}: {best * 1e3:.1f} ms"

    # A top-10 ranking through the facade merges the modules' ranked cut
    # sets: no SAT call, and in canonical (objective) order.
    sat_calls = []
    real_solve = CDCLSolver.solve

    def counting(self, *args, **kwargs):
        sat_calls.append(1)
        return real_solve(self, *args, **kwargs)

    monkeypatch.setattr(CDCLSolver, "solve", counting)
    session = AnalysisSession()
    ranking_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        report = session.analyze(tree, ["ranking"], backend="maxsat", top_k=10)
        ranking_best = min(ranking_best, time.perf_counter() - start)
    assert sat_calls == []
    assert ranking_best <= 0.050, f"{tree.name} top-10: {ranking_best * 1e3:.1f} ms"
    ranking = report.ranking
    assert len(ranking) == 10
    assert ranking[0].events == result.events
    assert all(tree.is_minimal_cut_set(entry.events) for entry in ranking)
    _, objective = event_weights(tree)
    costs = [sum(objective[name] for name in entry.events) for entry in ranking]
    assert all(earlier < later for earlier, later in zip(costs, costs[1:]))
    emit(
        f"E7 — voting gates through MPMCSSolver(): {tree.name}",
        [
            f"MPMCS = {{{', '.join(result.events)}}}  P = {result.probability:.3e}  "
            f"engine = {result.engine}  best of 3 = {best * 1e3:.2f} ms",
            f"facade top-10 ranking: best of 3 = {ranking_best * 1e3:.2f} ms, no SAT call",
        ],
    )


def test_bench_voting_gate_random_trees(benchmark):
    """Voting-heavy random trees: the sequential-counter encoding keeps the
    instance polynomial, so the pipeline stays in the seconds range."""
    trees = [
        random_fault_tree(num_basic_events=300, seed=s, voting_ratio=0.5, gate_arity=(3, 5))
        for s in (1, 2, 3)
    ]
    solver = MPMCSSolver(single_engine=RC2Engine())

    def run_all():
        return [solver.solve(tree) for tree in trees]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = []
    for tree, result in zip(trees, results):
        assert tree.is_minimal_cut_set(result.events)
        lines.append(
            f"{tree.name:32s} nodes={tree.num_nodes:5d} |MPMCS|={result.size:3d} "
            f"P={result.probability:.3e} vars={result.num_vars}"
        )
    emit("E7 — voting-heavy random trees (50% voting gates)", lines)
