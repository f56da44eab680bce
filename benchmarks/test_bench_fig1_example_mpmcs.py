"""E2 — Fig. 1 / Section II worked example: MPMCS of the fire protection system.

The paper states the MPMCS of the example fault tree is {x1, x2} with a joint
probability of 0.02.  This benchmark runs the full six-step pipeline on that
tree (with the default module-by-module solver) and asserts the exact result.
"""

import pytest

from repro.core.pipeline import MPMCSSolver
from repro.core.topk import enumerate_mpmcs
from repro.workloads.library import fire_protection_system

from benchmarks.conftest import emit


def test_bench_fig1_example_mpmcs(benchmark):
    tree = fire_protection_system()
    solver = MPMCSSolver()

    result = benchmark(solver.solve, tree)

    assert result.events == ("x1", "x2")
    assert result.probability == pytest.approx(0.02)
    assert result.cost == pytest.approx(1.60944 + 2.30259, abs=1e-4)

    emit(
        "E2 / Fig. 1 — MPMCS of the fire protection system",
        [
            f"paper    : MPMCS = {{x1, x2}}   P = 0.02",
            f"measured : MPMCS = {{{', '.join(result.events)}}}   "
            f"P = {result.probability:.6g}   cost = {result.cost:.5f}   "
            f"engine = {result.engine}   solve = {result.solve_time * 1000:.2f} ms",
        ],
    )


def test_bench_fig1_cut_set_ranking(benchmark):
    """Extension of the worked example: the full probability ranking of the
    five minimal cut sets of the FPS tree (the MPMCS is rank 1)."""
    tree = fire_protection_system()

    ranked = benchmark(enumerate_mpmcs, tree, 5)

    assert [entry.events for entry in ranked] == [
        ("x1", "x2"),
        ("x5", "x6"),
        ("x5", "x7"),
        ("x4",),
        ("x3",),
    ]
    emit(
        "E2 (extension) — all minimal cut sets of the FPS tree by probability",
        [
            f"#{entry.rank}: {{{', '.join(entry.events)}}}  p={entry.probability:.6g}"
            for entry in ranked
        ],
    )
