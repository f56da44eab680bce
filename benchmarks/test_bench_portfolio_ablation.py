"""E5 — Step 5 ablation: parallel portfolio vs individual MaxSAT engines.

The paper motivates the parallel portfolio with the observation that
individual solvers are "very good at some instances and not that good at
others", and claims the first-finisher-wins architecture "provides a more
stable behaviour in terms of performance and scalability".

This benchmark runs every engine alone and the portfolio on a set of
structurally different instances and asserts the stability property: on every
instance the portfolio's winner matches the cost of the best single engine
(no instance exists where the portfolio returns a worse optimum).  Times and
SAT calls are printed, not asserted.  ``voting_reuse_tree(40, 27)`` is the
case the race wins: RC2 spends its core budget before it hands over to the
hitting set engine, which the race runs from the start.
"""

import time

import pytest

from repro.core.encoder import encode_mpmcs
from repro.maxsat import HittingSetEngine, PortfolioSolver, RC2Engine
from repro.maxsat.result import MaxSATStatus
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import fire_protection_system, redundant_power_supply

from benchmarks.conftest import emit
from tests.conftest import voting_reuse_tree


def instances():
    """A small heterogeneous instance family (structure and size vary)."""
    trees = [
        fire_protection_system(),
        redundant_power_supply(),
        random_fault_tree(num_basic_events=150, seed=1, voting_ratio=0.0),
        random_fault_tree(num_basic_events=150, seed=2, voting_ratio=0.3),
        random_fault_tree(num_basic_events=400, seed=3),
        random_fault_tree(num_basic_events=120, seed=4, and_ratio=0.7, or_ratio=0.3),
        voting_reuse_tree(40, 27),
    ]
    return [(tree.name, encode_mpmcs(tree).instance) for tree in trees]


ENGINE_FACTORIES = [
    ("rc2", RC2Engine),
    ("hitting-set", HittingSetEngine),
]


def run_ablation():
    rows = []
    summary = []
    for name, instance in instances():
        engine_times = {}
        engine_costs = {}
        engine_calls = {}
        for engine_name, factory in ENGINE_FACTORIES:
            start = time.perf_counter()
            result = factory().solve(instance.copy())
            elapsed = time.perf_counter() - start
            engine_times[engine_name] = elapsed
            engine_calls[engine_name] = (result.sat_calls, result.engine)
            engine_costs[engine_name] = (
                result.cost if result.status is MaxSATStatus.OPTIMUM else None
            )

        start = time.perf_counter()
        sequential = PortfolioSolver().solve(instance.copy())
        sequential_time = time.perf_counter() - start

        portfolio = PortfolioSolver(mode="process")
        start = time.perf_counter()
        report = portfolio.solve_with_report(instance.copy())
        portfolio_time = time.perf_counter() - start

        rows.append((name, engine_times, engine_costs, report, portfolio_time))
        best_single = min(engine_times.values())
        summary.append(
            f"{name:35s} best-single={best_single:7.3f}s "
            f"portfolio={portfolio_time:7.3f}s winner={report.winner:16s} "
            f"sat-calls={report.result.sat_calls:4d} cost={report.result.cost}"
        )
        summary.append(
            " " * 36
            + "  ".join(
                f"{engine}: {calls} SAT calls ({answered})"
                for engine, (calls, answered) in engine_calls.items()
            )
            + f"  sequential portfolio: {sequential_time:.3f}s, "
            f"{sequential.sat_calls} SAT calls ({sequential.engine})"
        )
    return rows, summary


def test_bench_portfolio_ablation(benchmark):
    rows, summary = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    for name, engine_times, engine_costs, report, portfolio_time in rows:
        optimum_costs = {cost for cost in engine_costs.values() if cost is not None}
        # Every conclusive engine agrees on the optimum...
        assert len(optimum_costs) == 1, (name, engine_costs)
        # ...and the portfolio returns exactly that optimum (stability claim).
        assert report.result.cost in optimum_costs
        assert report.result.status is MaxSATStatus.OPTIMUM
        # The portfolio's winner is one of the configured engines.
        assert report.winner in dict(ENGINE_FACTORIES)

    emit(
        "E5 — portfolio vs single engines (first finisher wins, optimum always preserved)",
        summary
        + [
            "",
            "per-engine wall-clock seconds per instance:",
        ]
        + [
            f"  {name:35s} "
            + "  ".join(f"{engine}={elapsed:.3f}s" for engine, elapsed in engine_times.items())
            for name, engine_times, _, _, _ in rows
        ],
    )
