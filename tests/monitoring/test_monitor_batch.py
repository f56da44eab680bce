"""Batched monitor updates: apply_batch must be indistinguishable from the
one-at-a-time loop, and run(batch_size=N) must drain feeds in chunks."""

import json

import pytest

from repro.monitoring import (
    MonitorError,
    ProbabilityUpdate,
    SyntheticFeed,
    TreeMonitor,
)
from repro.api import AnalysisSession
from repro.exceptions import ProbabilityError
from repro.scenarios.sweep import SweepExecutor
from repro.workloads.generator import probability_walk, random_fault_tree
from repro.workloads.library import fire_protection_system


def _updates(count, seed=3):
    tree = fire_protection_system()
    return list(SyntheticFeed(tree, updates=count, seed=seed))


_VOLATILE = ("latency_s", "ts")


def _delta_documents(deltas):
    documents = []
    for delta in deltas:
        document = delta.to_dict()
        for key in _VOLATILE:
            document.pop(key, None)
        documents.append(json.dumps(document, sort_keys=True))
    return documents


class TestApplyBatch:
    def test_batch_deltas_equal_sequential_deltas(self):
        updates = _updates(20)
        sequential = TreeMonitor(fire_protection_system(), backend="maxsat")
        expected = [sequential.apply_update(update) for update in updates]
        batched = TreeMonitor(fire_protection_system(), backend="maxsat")
        actual = []
        for start in range(0, len(updates), 5):
            actual.extend(batched.apply_batch(updates[start : start + 5]))
        assert _delta_documents(actual) == _delta_documents(expected)

    def test_batch_reports_are_byte_identical(self):
        updates = _updates(8)
        sequential = TreeMonitor(
            fire_protection_system(), backend="maxsat", include_reports=True
        )
        expected = [sequential.apply_update(update) for update in updates]
        batched = TreeMonitor(
            fire_protection_system(), backend="maxsat", include_reports=True
        )
        actual = batched.apply_batch(updates)
        for left, right in zip(actual, expected):
            assert left.report is not None
            assert (
                left.report.to_canonical_dict() == right.report.to_canonical_dict()
            )

    def test_empty_batch_is_a_no_op(self):
        monitor = TreeMonitor(fire_protection_system(), backend="maxsat")
        assert monitor.apply_batch([]) == []

    def test_staged_updates_are_cumulative_within_a_batch(self):
        monitor = TreeMonitor(fire_protection_system(), backend="maxsat")
        first = ProbabilityUpdate.create({"x1": 0.5}, seq=1)
        second = ProbabilityUpdate.create({"x2": 0.2}, seq=2)
        deltas = monitor.apply_batch([first, second])
        # The second staged update sees the first one's value already applied.
        assert tuple(deltas[1].changed_events) == ("x2",)
        third = monitor.apply_update(ProbabilityUpdate.create({"x1": 0.5}, seq=3))
        assert tuple(third.changed_events) == ()  # x1 already at 0.5 from the batch


class TestAtomicBatch:
    def test_a_rejected_update_leaves_the_whole_batch_unapplied(self):
        updates = _updates(6)
        monitor = TreeMonitor(fire_protection_system(), backend="maxsat")
        monitor.ensure_base()
        before = monitor.status()
        # The feed refuses 0 (ProbabilityUpdate.create), so the update the
        # tree rejects is built directly.
        bad = ProbabilityUpdate(values=(("x1", 0.0),), seq=99)
        with pytest.raises(ProbabilityError, match="'x1'"):
            monitor.apply_batch(updates[:3] + [bad] + updates[3:])
        assert monitor.status() == before
        # The monitor carries on as if the batch had never been offered.
        fresh = TreeMonitor(fire_protection_system(), backend="maxsat")
        assert _delta_documents(monitor.apply_batch(updates)) == _delta_documents(
            fresh.apply_batch(updates)
        )


def _canonical(report):
    return json.dumps(report.to_canonical_dict(), sort_keys=True).encode("utf-8")


class TestWarmAgainstCold:
    """The one-optimum warm route, over a long drifting walk, answers
    byte-for-byte what a cold analysis of each cumulative state answers."""

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize(
        "event_reuse",
        # Without shared nodes every module solves by rule; with them a
        # searched skeleton is re-solved on its warm session.
        [0.0, 0.2],
        ids=["modular", "shared"],
    )
    def test_long_walk_matches_cold_analyses(self, event_reuse, chunk):
        tree = random_fault_tree(
            num_basic_events=60, seed=5, voting_ratio=0.05, event_reuse=event_reuse
        )
        updates = [
            ProbabilityUpdate.create(values, seq=seq)
            for seq, values in enumerate(
                probability_walk(tree, steps=250, events_per_step=4, volatility=1.5),
                start=1,
            )
        ]
        monitor = TreeMonitor(tree)
        deltas = []
        for start in range(0, len(updates), chunk):
            deltas.extend(monitor.apply_batch(updates[start : start + chunk]))
        assert len(deltas) == len(updates)

        executor = SweepExecutor(AnalysisSession(), backend="maxsat")
        analyses = executor.prepare_analyses()
        patched = tree.copy()
        mismatches = []
        for update, delta in zip(updates, deltas):
            for event, value in update.values:
                patched.set_probability(event, value)
            cold = executor.analyze_tree(patched, analyses, top_k=monitor.top_k)
            if _canonical(delta.report) != _canonical(cold):
                mismatches.append(update.seq)
        assert mismatches == []


class TestRunBatchSize:
    def test_chunked_run_applies_every_update(self):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree, backend="maxsat")
        applied = monitor.run(SyntheticFeed(tree, updates=11, seed=1), batch_size=4)
        assert applied == 11

    def test_chunked_run_respects_max_updates(self):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree, backend="maxsat")
        applied = monitor.run(
            SyntheticFeed(tree, updates=50, seed=1), max_updates=7, batch_size=3
        )
        assert applied == 7

    def test_chunked_run_matches_unchunked_deltas(self):
        tree = fire_protection_system()
        chunked = TreeMonitor(tree, backend="maxsat")
        chunked.run(SyntheticFeed(tree, updates=9, seed=2), batch_size=4)
        plain = TreeMonitor(tree, backend="maxsat")
        plain.run(SyntheticFeed(tree, updates=9, seed=2))
        def delta_documents(monitor):
            documents = []
            for event in monitor.events.events_after(0):
                if event.kind != "delta":
                    continue
                document = dict(event.data)
                for key in _VOLATILE:
                    document.pop(key, None)
                documents.append(document)
            return documents

        assert delta_documents(chunked) == delta_documents(plain)

    def test_invalid_batch_size_raises(self):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree, backend="maxsat")
        with pytest.raises(MonitorError, match="batch_size"):
            monitor.run(SyntheticFeed(tree, updates=2, seed=1), batch_size=0)
        with pytest.raises(MonitorError, match="batch_size"):
            monitor.start(SyntheticFeed(tree, updates=2, seed=1), batch_size=-1)

    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_zero_max_updates_applies_none(self, batch_size):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree, backend="maxsat")
        applied = monitor.run(
            SyntheticFeed(tree, updates=5, seed=1), max_updates=0, batch_size=batch_size
        )
        assert applied == 0
        assert monitor.status()["updates"] == 0
        kinds = [event.kind for event in monitor.events.events_after(0)]
        assert "delta" not in kinds and kinds[-1] == "end"

    def test_negative_max_updates_raises(self):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree, backend="maxsat")
        with pytest.raises(MonitorError, match="max_updates"):
            monitor.run(SyntheticFeed(tree, updates=2, seed=1), max_updates=-1)
        with pytest.raises(MonitorError, match="max_updates"):
            monitor.start(SyntheticFeed(tree, updates=2, seed=1), max_updates=-1)

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_update_pulled_after_stop_is_not_applied(self, batch_size):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree, backend="maxsat")
        updates = list(SyntheticFeed(tree, updates=6, seed=1))

        def feed():
            yield from updates[:batch_size]
            monitor._stop.set()  # stop() arrives while the feed is being read
            yield from updates[batch_size:]

        assert monitor.run(feed(), batch_size=batch_size) == batch_size
        assert monitor.status()["updates"] == batch_size

    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_staleness_is_checked_after_each_chunk(self, batch_size, monkeypatch):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree, backend="maxsat")
        checks = []
        monkeypatch.setattr(monitor, "check_staleness", lambda: checks.append(1))
        monitor.run(SyntheticFeed(tree, updates=6, seed=1), batch_size=batch_size)
        assert len(checks) == 6 // batch_size
