"""E16 — Batched weight-only MaxSAT re-rank: solve_batch vs a solve loop.

The claim: on a 500-scenario weight-only sweep, one ``solve_batch`` call —
seed gate proven by the vectorised packing lower bound, SAT-free
certification of the seeded branch-and-bound — is **≥3x faster** than a
plain per-scenario ``solve`` loop on an identically warmed session, returns
**byte-identical** results, and spends **< 0.1 SAT calls per scenario** in
steady state.

The sweep-level variant re-asserts byte-identity where it matters to users:
``SweepExecutor`` canonical scenario reports with the batch path on vs off.

The smoke variant emits a machine-readable ``BENCH_rerank.json`` (scenario
count, wall-clocks, speedup, SAT calls per scenario, ladder split) for the CI
benchmark artifact and the perf trajectory in ``tools/bench_history.py``.
"""

import json
import os
import time
from pathlib import Path

from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.scenarios import SweepExecutor, probability_sweep
from repro.workloads.generator import random_fault_tree

from benchmarks.conftest import emit


def _drift_grid(session, tree, scenarios=500):
    """A drift-shaped weight grid: one event sweeps, the rest breathe gently.

    This is the shape warm sweeps and live monitors produce — smooth
    per-scenario weight motion — and the steady-state regime the < 0.1 SAT
    calls/scenario acceptance criterion talks about.
    """
    from repro.core.weights import log_weight

    probabilities = tree.probabilities()
    base = {name: log_weight(probabilities[name]) for name in session.event_vars}
    names = sorted(base)
    swept = names[0]
    rows = []
    for k in range(scenarios):
        ramp = k / max(1, scenarios - 1)
        row = {
            name: base[name] * (1.0 + 0.05 * ramp * ((index % 7) - 3) / 7.0)
            for index, name in enumerate(names)
        }
        row[swept] = max(1e-9, base[swept] * (0.25 + 3.0 * ramp))
        rows.append(row)
    return rows


def _essence(result):
    if result is None:
        return None
    return (
        result.events,
        result.scaled_cost,
        result.cost,
        result.probability_weights,
    )


def test_bench_rerank_batch_smoke(tmp_path):
    """500 drift scenarios: ≥3x over the solve loop, SAT-free steady state."""
    tree = random_fault_tree(num_basic_events=60, seed=13)
    loop_session = IncrementalMaxSATSession(tree)
    batch_session = IncrementalMaxSATSession(tree)
    # Warm both sessions identically: one full solve seeds cores and pool.
    loop_session.solve_tree(tree)
    batch_session.solve_tree(tree)
    weights_seq = _drift_grid(batch_session, tree, scenarios=500)

    started = time.perf_counter()
    loop_results = [loop_session.solve(weights) for weights in weights_seq]
    loop_s = time.perf_counter() - started

    calls_before = batch_session.sat_calls
    started = time.perf_counter()
    batch_results = batch_session.solve_batch(weights_seq)
    batch_s = time.perf_counter() - started
    sat_per_scenario = (batch_session.sat_calls - calls_before) / len(weights_seq)

    assert [_essence(r) for r in batch_results] == [
        _essence(r) for r in loop_results
    ]
    speedup = loop_s / batch_s if batch_s else float("inf")

    record = {
        "benchmark": "E16-maxsat-rerank-batch",
        "scenarios": len(weights_seq),
        "events": 60,
        "loop_wall_clock_s": round(loop_s, 4),
        "batch_wall_clock_s": round(batch_s, 4),
        "batch_speedup_vs_loop": round(speedup, 2),
        "sat_calls_per_scenario": round(sat_per_scenario, 4),
        "kernel": batch_session.stats()["kernel"],
        "pool_candidates": batch_session.pool_size,
        "rerank_split": dict(batch_session.rerank_stats),
    }
    output = Path(os.environ.get("BENCH_RERANK_JSON", "BENCH_rerank.json"))
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    emit(
        "E16 (smoke) — batched re-rank vs per-scenario solve loop",
        [f"{key:26}: {value}" for key, value in record.items()]
        + [f"{'json record':26}: {output}"],
    )

    # Acceptance criteria: measured ~7x and 0.0 SAT calls/scenario on a
    # single core; the asserted margins leave room for starved CI runners.
    assert speedup >= 3.0
    assert sat_per_scenario < 0.1


def test_bench_rerank_sweep_byte_identity():
    """Sweep-level contract: batch path on vs off, canonical reports equal."""
    tree = random_fault_tree(num_basic_events=30, seed=13)
    event = sorted(tree.events_reachable_from_top())[0]
    scenarios = probability_sweep(event, start=1e-4, stop=0.6, steps=60)

    batched = SweepExecutor(backend="maxsat").run(tree, scenarios)

    unbatched_executor = SweepExecutor(backend="maxsat")
    unbatched_executor.precompute_rerank = lambda trees: 0
    unbatched = unbatched_executor.run(tree, scenarios)

    left = json.dumps(batched.to_canonical_dict(), sort_keys=True)
    right = json.dumps(unbatched.to_canonical_dict(), sort_keys=True)
    assert left == right
    emit(
        "E16 — sweep-level byte identity",
        [
            f"{'scenarios':26}: {len(batched)}",
            f"{'canonical bytes':26}: {len(left)}",
            f"{'identical':26}: True",
        ],
    )
