"""E12 — Incremental MaxSAT sweeps: warm weight-only re-solves vs cold.

The tentpole claim of the incremental sweep engine: on a ≥60-event tree and a
≥100-scenario probability sweep, the warm ``maxsat`` path — hard clauses
assembled once per structure, one persistent hitting-set session per
structure, weight-only re-solves — is **≥3x faster** than per-scenario cold re-encode+re-solve,
with **byte-identical** canonical :class:`AnalysisReport` dicts for every
scenario.

The smoke variant also emits a machine-readable ``BENCH_sweep.json``
(scenario count, wall-clock, hit rates, speedup vs cold) so the CI benchmark
job can upload it as an artifact and seed the perf trajectory.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.api import AnalysisSession
from repro.api.report import AnalysisRequest
from repro.core import encoder
from repro.scenarios import probability_sweep
from repro.workloads.generator import random_fault_tree

from benchmarks.conftest import emit

#: Timed passes of each side in the acceptance comparison.
PASSES = 5


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scenario_trees(num_events: int, seed: int, steps: int):
    tree = random_fault_tree(num_basic_events=num_events, seed=seed)
    event = sorted(tree.events_reachable_from_top())[0]
    scenarios = probability_sweep(
        event, [0.0005 + 0.9 * index / steps / 2 for index in range(steps)]
    )
    return tree, event, [scenario.apply(tree) for scenario in scenarios]


def _count_assemblies(monkeypatch):
    """The structures whose hard clauses get assembled from now on, one entry
    per :func:`repro.core.encoder.assemble_structure_cnf` call."""
    calls = []
    original = encoder.assemble_structure_cnf

    def counting(structure):
        calls.append(structure)
        return original(structure)

    monkeypatch.setattr(encoder, "assemble_structure_cnf", counting)
    return calls


def _cold_canonical(trees):
    """Fresh session per scenario: a cold module-by-module solve each."""
    documents = []
    for patched in trees:
        report = AnalysisSession().analyze(patched, ["mpmcs"], backend="maxsat")
        documents.append(json.dumps(report.to_canonical_dict(), sort_keys=True))
    return documents


def _warm_canonical(trees):
    """One warm session: clauses memoised per structure, solver persistent,
    weights only."""
    session = AnalysisSession()
    request = AnalysisRequest.create(["mpmcs"], backend="maxsat")
    documents = [
        json.dumps(report.to_canonical_dict(), sort_keys=True)
        for report in session.run_batch(trees, request)
    ]
    return documents, session


def test_bench_incremental_maxsat_smoke(tmp_path, monkeypatch):
    """Small grid: identical reports, JSON perf record for the CI artifact."""
    _, event, trees = _scenario_trees(num_events=40, seed=5, steps=40)
    assemblies = _count_assemblies(monkeypatch)

    started = time.perf_counter()
    cold_subset = _cold_canonical(trees[:10])
    cold_per_scenario = (time.perf_counter() - started) / 10

    started = time.perf_counter()
    warm, session = _warm_canonical(trees)
    warm_s = time.perf_counter() - started

    assert warm[:10] == cold_subset
    cold_estimate = cold_per_scenario * len(trees)
    speedup = cold_estimate / warm_s if warm_s else float("inf")
    stats = session.cache_info()

    record = {
        "benchmark": "E12-incremental-maxsat-sweep",
        "scenarios": len(trees),
        "events": 40,
        "swept_event": event,
        "warm_wall_clock_s": round(warm_s, 4),
        "cold_wall_clock_s_estimated": round(cold_estimate, 4),
        "cold_sample_size": 10,
        "speedup_vs_cold": round(speedup, 2),
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        # Every scenario shares the base tree's structure: at most one
        # assembly, none when every module solves by rule.
        "structure_assemblies": len(assemblies),
        "host_cores": _available_cores(),
    }
    output = Path(os.environ.get("BENCH_SWEEP_JSON", "BENCH_sweep.json"))
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    emit(
        "E12 (smoke) — warm incremental maxsat sweep vs cold",
        [f"{key:26}: {value}" for key, value in record.items()]
        + [f"{'json record':26}: {output}"],
    )
    # Even the smoke grid must show a real win (measured ~13-17x on a
    # single core); on starved runners only a noise-proof margin is asserted.
    if _available_cores() >= 2:
        assert speedup > 1.5
    else:
        assert speedup > 1.1


@pytest.mark.slow
def test_bench_incremental_maxsat_acceptance(monkeypatch):
    """The acceptance comparison: 60-event tree, 110-scenario sweep, ≥3x.

    One warm sweep takes a few hundredths of a second, so each side is timed
    as the best of ``PASSES`` passes, cold and warm alternating.
    """
    _, event, trees = _scenario_trees(num_events=60, seed=11, steps=110)
    assemblies = _count_assemblies(monkeypatch)

    cold_s = warm_s = float("inf")
    for _ in range(PASSES):
        started = time.perf_counter()
        cold = _cold_canonical(trees)
        cold_s = min(cold_s, time.perf_counter() - started)

        started = time.perf_counter()
        warm, _ = _warm_canonical(trees)
        warm_s = min(warm_s, time.perf_counter() - started)

        # Canonical identity, scenario by scenario, always.
        assert warm == cold

    speedup = cold_s / warm_s
    cores = _available_cores()
    emit(
        "E12 — incremental maxsat sweep (60 events, 110 scenarios)",
        [
            f"swept event       : {event!r}",
            f"cold (per-scenario re-encode+re-solve, best of {PASSES}) : {cold_s:8.3f} s",
            f"warm (memoised clauses + persistent session, best of {PASSES}) : {warm_s:8.3f} s",
            f"speedup           : {speedup:8.2f} x",
            f"structures assembled : {len(assemblies)} (cold and warm, one structure, at most once)",
            f"host cores        : {cores}",
        ],
    )
    # The warm path never loses; the full ≥3x claim is asserted wherever the
    # host is not so starved that timing noise dominates.
    assert warm_s < cold_s
    if cores >= 2:
        assert speedup >= 3.0, (
            f"warm incremental sweep ({warm_s:.2f}s) should be ≥3x faster than "
            f"cold per-scenario analysis ({cold_s:.2f}s); got {speedup:.2f}x"
        )
    else:
        assert speedup >= 2.0
