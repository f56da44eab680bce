"""Partitioned parallel sweeps: equivalence, merging, store sharing."""

import json

import pytest

from repro.api.cache import ArtifactCache
from repro.api.session import AnalysisSession
from repro.scenarios import SweepExecutor, mission_time_sweep, probability_sweep
from repro.service.jobs import JobQueue
from repro.service.store import DiskArtifactStore
from repro.service.workers import (
    JobRunner,
    WorkerPool,
    merge_scenario_reports,
    run_parallel_sweep,
)
from repro.fta.serializers import to_json_document
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import fire_protection_system


def _canonical(report):
    return json.dumps(report.to_canonical_dict(), sort_keys=True)


class TestParallelEquivalence:
    def test_parallel_matches_sequential_fig1(self, tmp_path):
        tree = fire_protection_system()
        scenarios = probability_sweep("x1", start=1e-3, stop=0.5, steps=12)
        sequential = SweepExecutor().run(tree, scenarios)
        parallel = run_parallel_sweep(
            tree, scenarios, workers=3, store_path=str(tmp_path)
        )
        assert _canonical(parallel) == _canonical(sequential)
        assert len(parallel) == 12

    def test_parallel_matches_sequential_structural_scenarios(self, tmp_path):
        tree = random_fault_tree(num_basic_events=24, seed=11)
        scenarios = mission_time_sweep([0.5, 0.75, 1.0, 1.5, 2.0, 3.0])
        sequential = SweepExecutor().run(tree, scenarios)
        parallel = run_parallel_sweep(
            tree, scenarios, workers=2, store_path=str(tmp_path)
        )
        assert _canonical(parallel) == _canonical(sequential)

    def test_single_worker_degrades_to_sequential(self, tmp_path):
        tree = fire_protection_system()
        scenarios = probability_sweep("x1", [0.01, 0.02, 0.05])
        report = run_parallel_sweep(
            tree, scenarios, workers=1, store_path=str(tmp_path)
        )
        assert _canonical(report) == _canonical(SweepExecutor().run(tree, scenarios))

    def test_workers_share_store_artifacts(self, tmp_path):
        """A warm store turns every worker's enumeration into disk hits."""
        tree = random_fault_tree(num_basic_events=20, seed=5)
        scenarios = probability_sweep(
            sorted(tree.events)[0], start=1e-4, stop=0.1, steps=8
        )
        # Warm the store with one sequential pass.
        warm_cache = ArtifactCache(backend=DiskArtifactStore(tmp_path))
        SweepExecutor(AnalysisSession(cache=warm_cache)).run(tree, scenarios)

        report = run_parallel_sweep(
            tree, scenarios, workers=2, store_path=str(tmp_path)
        )
        assert report.cache_stats.get("store_hits", 0) > 0


class TestMerge:
    def test_merge_concatenates_outcomes_and_sums_stats(self):
        tree = fire_protection_system()
        first = SweepExecutor().run(tree, probability_sweep("x1", [0.01, 0.02]))
        second = SweepExecutor().run(tree, probability_sweep("x1", [0.05, 0.1]))
        merged = merge_scenario_reports([first, second])
        assert [outcome.name for outcome in merged.outcomes] == [
            "x1=0.01", "x1=0.02", "x1=0.05", "x1=0.1",
        ]
        assert merged.base_top_event == first.base_top_event
        assert merged.cache_stats["misses"] == (
            first.cache_stats["misses"] + second.cache_stats["misses"]
        )

    def test_merge_empty_rejected(self):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            merge_scenario_reports([])


class TestWorkerPoolExecution:
    def test_pool_runs_jobs_through_runner(self, tmp_path):
        queue = JobQueue()
        pool = WorkerPool(queue, workers=2, store_path=str(tmp_path)).start()
        try:
            document = to_json_document(fire_protection_system())
            analyze = queue.submit("analyze", {"tree": document, "analyses": ["mpmcs"]})
            sweep = queue.submit(
                "sweep",
                {
                    "tree": document,
                    "scenarios": {
                        "family": "probability_sweep",
                        "event": "x1",
                        "values": [0.001, 0.01, 0.1],
                    },
                },
            )
            analyze_done = queue.wait(analyze.id, timeout=60.0)
            sweep_done = queue.wait(sweep.id, timeout=60.0)
            assert analyze_done.status.value == "done", analyze_done.error
            assert sweep_done.status.value == "done", sweep_done.error
            assert analyze_done.result["report"]["mpmcs"]["events"] == ["x1", "x2"]
            assert sweep_done.result["num_scenarios"] == 3
        finally:
            pool.stop()

    def test_runner_batch_isolates_failures(self, tmp_path):
        runner = JobRunner(store_path=str(tmp_path))
        good = to_json_document(fire_protection_system())
        result = runner._run_batch({"trees": [good, {"name": "broken"}], "analyses": ["mpmcs"]})
        assert result["num_ok"] == 1
        assert result["items"][0]["ok"] is True
        assert result["items"][1]["ok"] is False and result["items"][1]["error"]

    def test_sweep_workers_service_default_applies(self, tmp_path):
        """workers omitted or 0 in the payload falls back to the service default."""
        runner = JobRunner(store_path=str(tmp_path), sweep_workers=2)
        payload = {
            "tree": to_json_document(fire_protection_system()),
            "scenarios": {
                "family": "probability_sweep", "event": "x1", "values": [0.01, 0.1],
            },
        }
        assert runner._run_sweep(dict(payload))["workers"] == 2
        assert runner._run_sweep(dict(payload, workers=0))["workers"] == 2
        assert runner._run_sweep(dict(payload, workers=1))["workers"] == 1

    def test_runner_rejects_malformed_payloads(self, tmp_path):
        from repro.service.jobs import JobError

        runner = JobRunner()
        with pytest.raises(JobError):
            runner._run_analyze({})
        with pytest.raises(JobError):
            runner._run_sweep({"tree": to_json_document(fire_protection_system())})
        with pytest.raises(JobError):
            runner._run_batch({"trees": []})
