"""E15 — Kernel dispatch: batched BDD evaluation vs per-scenario scalar walks.

The tentpole claim of the kernel layer: on a node-heavy BDD (voting gates,
~13k nodes) and a 1000-scenario probability grid, one vectorised pass through
the ``numpy`` kernel tier is **≥10x faster** than evaluating the same grid
scenario-by-scenario with scalar :func:`probability_of_bdd` walks — with
**exact float equality** across every kernel tier (both tiers execute
the identical IEEE-754 operation sequence per node, so they are
interchangeable without perturbing canonical reports).

The smoke variant emits a machine-readable ``BENCH_kernels.json`` (node and
scenario counts, wall-clocks and per-tier speedups) so the CI benchmark job
can upload it as an artifact and seed the perf trajectory.  Without numpy
the benchmark still runs: it checks the python reference tier's exactness
and records its speedup, skipping only the ≥10x assertion.
"""

import json
import os
import time
from pathlib import Path

from repro import kernels
from repro.bdd import BDDManager, variable_order
from repro.bdd.probability import probability_of_bdd
from repro.numerics import HAVE_NUMPY
from repro.workloads.generator import random_fault_tree

from benchmarks.conftest import emit


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _voting_bdd_workload(num_scenarios: int):
    """A voting-gate tree (node-heavy BDD) plus a deterministic scenario grid."""
    tree = random_fault_tree(
        num_basic_events=120,
        seed=1,
        voting_ratio=1.0,
        and_ratio=0.0,
        or_ratio=0.0,
        gate_arity=(30, 50),
    )
    manager = BDDManager(variable_order(tree, heuristic="dfs"))
    function = manager.from_fault_tree(tree)
    base = tree.probabilities()
    events = sorted(base)
    maps = []
    for index in range(num_scenarios):
        probabilities = dict(base)
        probabilities[events[index % len(events)]] = (
            0.0005 + 0.999 * ((index * 37) % num_scenarios) / num_scenarios
        )
        maps.append(probabilities)
    return function, maps


def test_bench_kernels_batch_vs_scalar(tmp_path):
    """1000-scenario grid: ≥10x batched numpy vs scalar, exact across tiers."""
    function, maps = _voting_bdd_workload(num_scenarios=1000)

    started = time.perf_counter()
    scalar = [probability_of_bdd(function, probabilities) for probabilities in maps]
    scalar_s = time.perf_counter() - started

    tier_results = {}
    for tier in kernels.available_tiers():
        suite = kernels.select(tier)
        started = time.perf_counter()
        batched = kernels.batch_probability_of_bdd(suite, function, maps)
        tier_s = time.perf_counter() - started
        # Exact equality, not approximate: every tier runs the identical
        # IEEE-754 operation sequence as the scalar reference walk.
        assert batched == scalar, f"tier {tier!r} diverged from the scalar walk"
        tier_results[tier] = {
            "wall_clock_s": round(tier_s, 4),
            "speedup_vs_scalar": round(scalar_s / tier_s, 2) if tier_s else float("inf"),
        }

    from repro.bdd.probability import flatten_bdd

    record = {
        "benchmark": "E15-kernel-batch-bdd-eval",
        "scenarios": len(maps),
        "bdd_nodes": flatten_bdd(function).num_nodes,
        "numpy_available": HAVE_NUMPY,
        "scalar_wall_clock_s": round(scalar_s, 4),
        "tiers": tier_results,
        "host_cores": _available_cores(),
    }
    if "numpy" in tier_results:
        # Flat copy of the headline metric for tools/bench_history.py.
        record["numpy_speedup_vs_scalar"] = tier_results["numpy"]["speedup_vs_scalar"]
    output = Path(os.environ.get("BENCH_KERNELS_JSON", "BENCH_kernels.json"))
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    emit(
        "E15 (smoke) — batched kernel BDD evaluation vs per-scenario scalar",
        [f"{key:26}: {value}" for key, value in record.items()]
        + [f"{'json record':26}: {output}"],
    )

    if HAVE_NUMPY:
        # The headline: one vectorised pass beats 1000 scalar walks ≥10x
        # (~15x measured on one core; the margin is not runner-sensitive
        # because both sides are single-threaded CPU-bound loops).
        assert tier_results["numpy"]["speedup_vs_scalar"] >= 10.0
