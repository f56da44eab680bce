"""E16 — Warm weight-only MaxSAT re-solves: the per-scenario ``solve`` loop.

The claim: on a 500-scenario weight-only drift sweep, a warm
``IncrementalMaxSATSession`` answers almost every scenario without a SAT
call — a minimum-cost hitting set of the cached cores that contains a pooled
cut set, or reaches the root when the gates are evaluated over it, is the
optimum — so the loop spends **< 0.1 SAT calls per scenario** in steady state
and agrees with fresh sessions on every sampled scenario's optimum.  The
session is over the whole tree's skeleton (every basic event a leaf), fed
each event's objective as the warm route feeds a searched module's
skeleton its leaves' cheapest entries.  Its throughput (``loop_scenarios_per_s``) is recorded for
the perf history.

The sweep-level variant asserts what users see: a warm ``maxsat``
``SweepExecutor`` produces the same per-scenario MPMCS and P(top) as fresh
per-scenario analysis, and a warm top-5 ranking sweep the same reports as
fresh cold rankings.

The smoke variant emits a machine-readable ``BENCH_rerank.json`` (scenario
count, wall-clock, throughput, SAT calls per scenario, certified/fallback
split) for the CI benchmark artifact and ``tools/bench_history.py``.
"""

import json
import math
import os
import time
from pathlib import Path

import pytest

from repro.api import AnalysisSession
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.scenarios import SweepExecutor, probability_sweep
from repro.workloads.generator import random_fault_tree

from benchmarks.conftest import emit
from tests.conftest import leaf_values, searched_skeletons, voting_reuse_tree, whole_tree_skeleton


def _canonical(report):
    return json.dumps(report.to_canonical_dict(), sort_keys=True)


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


def _swept_event(analyses):
    """The tree and the event a sweep-level case sweeps.  The ranking case
    sweeps ``e13``, a leaf of the one searched skeleton (below a module taken
    by rule) that moves the top 5, so every scenario re-lists that
    skeleton's cut sets."""
    if "ranking" not in analyses:
        tree = random_fault_tree(num_basic_events=30, seed=13)
        return tree, sorted(tree.events_reachable_from_top())[0]
    tree = voting_reuse_tree(30, 3)
    (skeleton,) = searched_skeletons(tree)
    assert skeleton.root != tree.top_event and "e13" in skeleton.order
    return tree, "e13"


@pytest.mark.parametrize(
    "analyses", [("mpmcs", "top_event"), ("mpmcs", "ranking")], ids=["mpmcs", "top-5-ranking"]
)
def test_bench_rerank_sweep_byte_identity(analyses):
    """Sweep-level contract: a warm maxsat sweep equals fresh analysis; a
    top-5 ranking sweep's reports equal fresh cold rankings byte for byte."""
    tree, event = _swept_event(analyses)
    scenarios = probability_sweep(event, start=1e-4, stop=0.6, steps=60)

    executor = SweepExecutor(backend="maxsat")
    report = executor.run(tree, scenarios, analyses=analyses, top_k=5)

    swept = [
        (outcome.mpmcs_events, outcome.mpmcs_probability, outcome.top_event)
        for outcome in report.outcomes
    ]
    fresh = []
    for scenario in scenarios:
        patched = scenario.apply(tree)
        mpmcs = AnalysisSession().analyze(patched, ["mpmcs"], backend="maxsat").mpmcs
        exact = None
        if "top_event" in analyses:
            exact = AnalysisSession().analyze(patched, ["top_event"], backend="bdd").top_event
            exact = exact.best_estimate
        fresh.append((mpmcs.events, mpmcs.probability, exact))
    assert swept == fresh
    if "ranking" in analyses:
        patched = [scenario.apply(tree) for scenario in scenarios]
        warm = list(executor.analyze_batch(patched, executor.prepare_analyses(analyses), top_k=5))
        assert len({tuple(cut.events for cut in report.ranking) for report in warm}) > 1
        for tree_of_scenario, warm_report in zip(patched, warm):
            assert warm_report.profile["warm_solves"] == 1
            cold = AnalysisSession().analyze(
                tree_of_scenario, list(analyses), backend="maxsat", top_k=5
            )
            assert _canonical(warm_report) == _canonical(cold)
    emit(
        "E16 — sweep-level identity with fresh analysis",
        [
            f"{'analyses':26}: {', '.join(analyses)}",
            f"{'scenarios':26}: {len(report)}",
            f"{'identical':26}: True",
        ],
    )
