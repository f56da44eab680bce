"""Tests for the batch execution layer."""

import pytest

from repro.api import AnalysisSession, analyze_many
from repro.api.cache import ARTIFACT_CUT_SETS
from repro.fta.tree import FaultTree
from repro.workloads.library import (
    fire_protection_system,
    pressure_tank,
    three_motor_system,
)

TREES = [fire_protection_system, pressure_tank, three_motor_system]


def _expected_events():
    return [
        AnalysisSession().analyze(factory(), ["mpmcs"]).mpmcs.events for factory in TREES
    ]


class TestSequentialBatch:
    def test_reports_in_input_order(self):
        result = analyze_many([factory() for factory in TREES], ["mpmcs"])
        assert len(result) == 3
        assert result.num_ok == 3
        assert [item.tree_name for item in result] == [
            "fire-protection-system",
            "pressure-tank",
            "three-motor-system",
        ]
        assert [report.mpmcs.events for report in result.reports] == _expected_events()

    def test_identical_trees_share_cached_artifacts(self):
        session = AnalysisSession()
        result = analyze_many(
            [fire_protection_system(), fire_protection_system(), fire_protection_system()],
            ["mcs"],
            session=session,
        )
        assert result.num_ok == 3
        assert session.artifacts.misses_for(ARTIFACT_CUT_SETS) == 1
        assert session.artifacts.hits_for(ARTIFACT_CUT_SETS) == 2

    def test_failures_are_captured_not_raised(self):
        broken = FaultTree("broken", top_event="missing")
        result = analyze_many([fire_protection_system(), broken], ["mpmcs"])
        assert result.num_ok == 1
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 1
        assert failure.tree_name == "broken"
        assert failure.error
        with pytest.raises(RuntimeError, match="broken"):
            result.raise_on_failure()

    def test_raise_on_failure_passes_through_on_success(self):
        result = analyze_many([fire_protection_system()], ["mpmcs"])
        assert result.raise_on_failure() is result

    def test_composite_analyses_in_batch(self):
        result = analyze_many(
            [fire_protection_system()], ["mpmcs", "top_event", "importance"]
        )
        report = result.reports[0]
        assert report.mpmcs.events == ("x1", "x2")
        assert report.top_event.exact == pytest.approx(0.0300217392, abs=1e-9)
        assert report.importance


class TestParallelBatch:
    def test_process_pool_matches_sequential(self):
        trees = [factory() for factory in TREES]
        sequential = analyze_many([factory() for factory in TREES], ["mpmcs"])
        parallel = analyze_many(trees, ["mpmcs"], workers=2)
        assert parallel.num_ok == 3
        assert [item.index for item in parallel] == [0, 1, 2]
        assert [r.mpmcs.events for r in parallel.reports] == [
            r.mpmcs.events for r in sequential.reports
        ]
        assert [r.mpmcs.probability for r in parallel.reports] == pytest.approx(
            [r.mpmcs.probability for r in sequential.reports]
        )

    def test_parallel_failures_are_captured(self):
        broken = FaultTree("broken", top_event="missing")
        result = analyze_many([broken, fire_protection_system()], ["mpmcs"], workers=2)
        assert result.num_ok == 1
        assert result.failures[0].tree_name == "broken"
