"""E5 — Step 5 ablation: one engine at a time against the module route.

The paper runs several pre-configured MaxSAT solvers in parallel and keeps
the first answer, motivated by the observation that individual solvers are
"very good at some instances and not that good at others"; it claims the
first-finisher-wins architecture "provides a more stable behaviour in terms
of performance and scalability".

Measured here, the claim did not hold.  A process race of RC2 against the
implicit hitting set engine lost to the module route on 172 of the 173
trees with a searched skeleton among 324 (the library, the E4 pool and
``e4_tree(n, 1)`` up to n=16000, 120 voting trees over shared subtrees, 138
small random trees; 2-core host, CPython 3.11, median of 3): by a median
3.4x on the E4 pool, and by 12 ms of process starts on the library trees.
Its one win, ``voting_reuse_tree(40, 27)``, was a skeleton on which RC2
spends its core budget before it hands over to the hitting set engine; that
skeleton now goes to an incremental session.  So the race is gone, and
Step 5 runs on one engine at a time.

This benchmark asks the Step 5 question without the race, on seven
structurally different trees: RC2 alone and the hitting set engine alone on
the whole-tree encoding, and the module route (``MPMCSSolver().solve``).  It
asserts that the three return the same cut set and that the two engines
return the same cost.  Times and SAT calls are printed, not asserted.
"""

import time

from repro.core.encoder import encode_mpmcs
from repro.core.pipeline import MPMCSSolver
from repro.maxsat import HittingSetEngine, RC2Engine
from repro.maxsat.result import MaxSATStatus
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import fire_protection_system, redundant_power_supply

from benchmarks.conftest import emit
from tests.conftest import voting_reuse_tree


def trees():
    """A small heterogeneous tree family (structure and size vary)."""
    return [
        fire_protection_system(),
        redundant_power_supply(),
        random_fault_tree(num_basic_events=150, seed=1, voting_ratio=0.0),
        random_fault_tree(num_basic_events=150, seed=2, voting_ratio=0.3),
        random_fault_tree(num_basic_events=400, seed=3),
        random_fault_tree(num_basic_events=120, seed=4, and_ratio=0.7, or_ratio=0.3),
        voting_reuse_tree(40, 27),
    ]


ENGINE_FACTORIES = [
    ("rc2", RC2Engine),
    ("hitting-set", HittingSetEngine),
]


def run_ablation():
    rows = []
    for tree in trees():
        encoding = encode_mpmcs(tree)
        runs = {}
        for name, factory in ENGINE_FACTORIES:
            start = time.perf_counter()
            result = factory().solve(encoding.instance.copy())
            elapsed = time.perf_counter() - start
            assert result.status is MaxSATStatus.OPTIMUM, (tree.name, name)
            runs[name] = (
                encoding.cut_set_from_model(result.model),
                result.cost,
                result.sat_calls,
                result.engine,
                elapsed,
            )
        start = time.perf_counter()
        modular = MPMCSSolver().solve(tree)
        elapsed = time.perf_counter() - start
        runs["modules"] = (modular.events, None, modular.sat_calls, modular.engine, elapsed)
        rows.append((tree.name, runs))
    return rows


def test_bench_portfolio_ablation(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    summary = []
    for name, runs in rows:
        cut_sets = {cut_set for cut_set, *_ in runs.values()}
        # The engines alone and the module route agree on the optimum...
        assert len(cut_sets) == 1, (name, runs)
        # ...and the two engines on its cost.
        assert runs["rc2"][1] == runs["hitting-set"][1], (name, runs)
        summary.append(
            f"{name:35s} "
            + "  ".join(
                f"{label}: {calls:4d} SAT calls {elapsed:7.3f}s ({engine})"
                for label, (_, _, calls, engine, elapsed) in runs.items()
            )
        )

    emit("E5 — Step 5 on one engine: RC2 alone, hitting set alone, module route", summary)
