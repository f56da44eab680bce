"""E16 — Warm weight-only MaxSAT re-solves: the per-scenario ``solve`` loop.

The claim: on a 500-scenario weight-only drift sweep, a warm
``IncrementalMaxSATSession`` answers almost every scenario without a SAT
call — a minimum-cost hitting set of the cached cores that contains a pooled
cut set, or reaches the root when the gates are evaluated over it, is the
optimum — so the loop spends **< 0.1 SAT calls per scenario** in steady state
and agrees with fresh sessions on every sampled scenario's optimum.  The
session is over the whole tree's skeleton (every basic event a leaf), fed
each event's ``(objective, weight)`` as the warm route feeds a searched
module's skeleton.  Its throughput (``loop_scenarios_per_s``) is recorded for
the perf history.

The sweep-level variant asserts what users see: a warm ``maxsat``
``SweepExecutor`` produces the same per-scenario MPMCS and P(top) as fresh
per-scenario analysis.

The smoke variant emits a machine-readable ``BENCH_rerank.json`` (scenario
count, wall-clock, throughput, SAT calls per scenario, certified/fallback
split) for the CI benchmark artifact and ``tools/bench_history.py``.
"""

import json
import math
import os
import time
from pathlib import Path

from repro.api import AnalysisSession
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.scenarios import SweepExecutor, probability_sweep
from repro.workloads.generator import random_fault_tree

from benchmarks.conftest import emit
from tests.conftest import leaf_values, whole_tree_skeleton


def _drift_grid(tree, scenarios=500):
    """A drift-shaped value grid: one event sweeps, the rest breathe gently.

    This is the shape warm sweeps and live monitors produce — smooth
    per-scenario weight motion — and the steady-state regime the < 0.1 SAT
    calls/scenario acceptance criterion talks about.
    """
    from repro.core.weights import log_weight

    probabilities = tree.probabilities()
    base = {name: log_weight(probabilities[name]) for name in tree.events}
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
        rows.append(leaf_values(tree, {name: math.exp(-weight) for name, weight in row.items()}))
    return rows


def test_bench_rerank_loop_smoke(tmp_path):
    """500 drift scenarios through the warm solve loop: SAT-free steady state."""
    tree = random_fault_tree(num_basic_events=60, seed=13)
    skeleton = whole_tree_skeleton(tree)
    session = IncrementalMaxSATSession(skeleton)
    # Warm the session: one full solve seeds the cores and the pool.
    session.solve(leaf_values(tree))
    values = _drift_grid(tree, scenarios=500)

    calls_before = session.sat_calls
    stats_before = dict(session.rerank_stats)
    started = time.perf_counter()
    results = [session.solve(value) for value in values]
    loop_s = time.perf_counter() - started
    sat_per_scenario = (session.sat_calls - calls_before) / len(values)

    # Every 25th scenario against a fresh session: the same optimum.
    for position in range(0, len(values), 25):
        fresh = IncrementalMaxSATSession(skeleton).solve(values[position])
        assert results[position] == fresh
        assert tree.is_minimal_cut_set(tuple(sorted(results[position])))

    record = {
        "benchmark": "E16-maxsat-warm-solve-loop",
        "scenarios": len(values),
        "events": 60,
        "loop_wall_clock_s": round(loop_s, 4),
        "loop_scenarios_per_s": round(len(values) / loop_s, 1) if loop_s else None,
        "sat_calls_per_scenario": round(sat_per_scenario, 4),
        "pool_candidates": session.pool_size,
        "solve_split": {
            tier: count - stats_before[tier]
            for tier, count in session.rerank_stats.items()
        },
    }
    output = Path(os.environ.get("BENCH_RERANK_JSON", "BENCH_rerank.json"))
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    emit(
        "E16 (smoke) — warm weight-only solve loop",
        [f"{key:26}: {value}" for key, value in record.items()]
        + [f"{'json record':26}: {output}"],
    )

    assert sat_per_scenario < 0.1


def test_bench_rerank_sweep_byte_identity():
    """Sweep-level contract: a warm maxsat sweep equals fresh analysis."""
    tree = random_fault_tree(num_basic_events=30, seed=13)
    event = sorted(tree.events_reachable_from_top())[0]
    scenarios = probability_sweep(event, start=1e-4, stop=0.6, steps=60)

    report = SweepExecutor(backend="maxsat").run(tree, scenarios)

    swept = [
        (outcome.mpmcs_events, outcome.mpmcs_probability, outcome.top_event)
        for outcome in report.outcomes
    ]
    fresh = []
    for scenario in scenarios:
        patched = scenario.apply(tree)
        mpmcs = AnalysisSession().analyze(patched, ["mpmcs"], backend="maxsat").mpmcs
        exact = AnalysisSession().analyze(patched, ["top_event"], backend="bdd").top_event
        fresh.append((mpmcs.events, mpmcs.probability, exact.best_estimate))
    assert swept == fresh
    emit(
        "E16 — sweep-level identity with fresh analysis",
        [
            f"{'scenarios':26}: {len(report)}",
            f"{'identical':26}: True",
        ],
    )
