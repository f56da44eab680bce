"""TreeMonitor: incremental per-update re-analysis, deltas, lifecycle.

Ends with the PR's acceptance test: a 100+-update synthetic feed whose
incremental deltas are byte-identical to a fresh sequential re-analysis,
with zero new cache misses after warmup, exactly one alert per alert kind
under hysteresis, and a latency histogram whose count equals the number of
updates applied.
"""

import json

import pytest

from repro.api import AnalysisSession
from repro.api.cache import ArtifactCache
from repro.exceptions import AnalysisError, ProbabilityError
from repro.monitoring import (
    MonitorError,
    MpmcsChanged,
    PTopThreshold,
    ProbabilityUpdate,
    SyntheticFeed,
    TreeMonitor,
)
from repro.observability.metrics import MetricsRegistry, set_metrics
from repro.scenarios.sweep import SweepExecutor
from repro.workloads.library import fire_protection_system


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def update(seq, **values):
    return ProbabilityUpdate.create(values, seq=seq)


def unchecked_update(seq, **values):
    """An update built without the feed's range check, so that the tree
    itself rejects a value such as 0 (feeds refuse it before that)."""
    return ProbabilityUpdate(values=tuple(sorted(values.items())), seq=seq)


class TestBase:
    def test_ensure_base_analyses_once_and_streams_a_base_event(self):
        monitor = TreeMonitor(fire_protection_system())
        first = monitor.ensure_base()
        assert monitor.ensure_base() is first
        events = monitor.events.events_after(0)
        assert [event.kind for event in events] == ["base"]
        assert events[0].data["mpmcs"] == ["x1", "x2"]

    def test_base_ptop_matches_the_known_fps_value(self):
        monitor = TreeMonitor(fire_protection_system())
        monitor.ensure_base()
        assert monitor.status()["base_ptop"] == pytest.approx(0.030021740460)


class TestApplyUpdate:
    def test_delta_tracks_previous_and_base(self):
        monitor = TreeMonitor(fire_protection_system())
        first = monitor.apply_update(update(1, x1=0.5))
        second = monitor.apply_update(update(2, x1=0.6))
        assert first.previous_ptop == pytest.approx(0.030021740460)
        assert second.previous_ptop == first.ptop
        assert second.base_ptop == first.base_ptop
        assert second.ptop_delta == pytest.approx(second.ptop - first.ptop)
        assert second.base_delta == pytest.approx(second.ptop - second.base_ptop)

    def test_changed_events_lists_only_actual_changes(self):
        monitor = TreeMonitor(fire_protection_system())
        delta = monitor.apply_update(update(1, x1=0.5, x2=0.1))  # x2 unchanged
        assert delta.changed_events == ("x1",)

    def test_unknown_events_are_skipped_and_counted(self, registry):
        monitor = TreeMonitor(fire_protection_system())
        delta = monitor.apply_update(update(1, nonexistent=0.4, x1=0.5))
        assert delta.changed_events == ("x1",)
        assert monitor.status()["unknown_events"] == 1
        assert registry.counter_value("repro_monitor_unknown_events_total") == 1

    def test_updates_are_cumulative(self):
        monitor = TreeMonitor(fire_protection_system())
        monitor.apply_update(update(1, x1=0.5))
        delta = monitor.apply_update(update(2, x2=0.2))
        # x1 from update 1 still applies.
        patched = fire_protection_system()
        patched.set_probability("x1", 0.5)
        patched.set_probability("x2", 0.2)
        fresh = SweepExecutor(AnalysisSession(), backend="maxsat")
        expected = fresh.analyze_tree(patched, fresh.prepare_analyses(), top_k=5)
        assert delta.report.to_canonical_dict() == expected.to_canonical_dict()

    def test_monitored_tree_is_never_mutated(self):
        tree = fire_protection_system()
        before = dict(tree.probabilities())
        monitor = TreeMonitor(tree)
        monitor.apply_update(update(1, x1=0.9))
        assert dict(tree.probabilities()) == before

    def test_bdd_monitor_compiles_one_diagram(self, monkeypatch):
        from repro.bdd.manager import BDDManager

        compiled = []
        original = BDDManager.from_fault_tree

        def counting(self, tree):
            compiled.append(tree.name)
            return original(self, tree)

        monkeypatch.setattr(BDDManager, "from_fault_tree", counting)
        tree = fire_protection_system()
        monitor = TreeMonitor(tree, backend="bdd")
        monitor.ensure_base()
        for item in SyntheticFeed(tree, updates=10, seed=3):
            monitor.apply_update(item)
        assert monitor.status()["updates"] == 10
        assert len(compiled) == 1


class TestStaging:
    def test_staging_sets_only_the_changed_events(self, monkeypatch):
        from repro.fta.tree import FaultTree

        monitor = TreeMonitor(fire_protection_system())
        monitor.apply_update(update(1, x1=0.5, x2=0.2))
        monitor.apply_update(update(2, x3=0.04))
        calls = []
        original = FaultTree.set_probability

        def counting(self, event_name, probability):
            calls.append(event_name)
            return original(self, event_name, probability)

        monkeypatch.setattr(FaultTree, "set_probability", counting)
        delta = monitor.apply_update(update(3, x4=0.3, x1=0.5))  # x1 unchanged
        # One call per changed event, however many events drifted before.
        assert delta.changed_events == ("x4",)
        assert calls == ["x4"]

    def test_staged_trees_share_the_compiled_structure(self):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree)
        first = monitor.apply_update(update(1, x1=0.5))
        second = monitor.apply_update(update(2, x2=0.2))
        assert first.report.tree is not second.report.tree
        assert first.report.tree.compiled() is tree.compiled()
        assert second.report.tree.compiled() is tree.compiled()
        # An earlier staged tree keeps its own probability state.
        assert first.report.tree.probability("x2") == tree.probability("x2")
        assert second.report.tree.probability("x1") == 0.5


class TestRejectedUpdates:
    """A rejected update raises and leaves the monitor as it was."""

    def test_a_rejected_value_does_not_poison_later_updates(self):
        monitor = TreeMonitor(fire_protection_system())
        monitor.ensure_base()
        before = monitor.status()
        with pytest.raises(ProbabilityError, match="'x1'"):
            monitor.apply_update(unchecked_update(1, x1=0.0))
        assert monitor.status() == before
        # The next update sees the state from before the rejected one.
        delta = monitor.apply_update(update(2, x2=0.3))
        assert delta.changed_events == ("x2",)
        assert delta.previous_ptop == before["base_ptop"]
        patched = fire_protection_system()
        patched.set_probability("x2", 0.3)
        fresh = SweepExecutor(AnalysisSession(), backend="maxsat")
        expected = fresh.analyze_tree(patched, fresh.prepare_analyses(), top_k=5)
        assert delta.report.to_canonical_dict() == expected.to_canonical_dict()
        third = monitor.apply_update(update(3, x1=0.1))
        assert third.changed_events == ("x1",)

    def test_a_rejected_update_streams_and_counts_nothing(self, registry):
        monitor = TreeMonitor(fire_protection_system())
        monitor.ensure_base()
        last_event = monitor.events.last_id
        with pytest.raises(ProbabilityError):
            monitor.apply_update(unchecked_update(1, nonexistent=0.4, x1=0.0))
        assert monitor.events.last_id == last_event
        assert monitor.status()["unknown_events"] == 0
        assert registry.counter_value("repro_monitor_unknown_events_total") == 0
        assert registry.counter_value("repro_monitor_updates_total") == 0

    def test_a_failed_analysis_leaves_the_state_unchanged(self, monkeypatch):
        monitor = TreeMonitor(fire_protection_system())
        monitor.ensure_base()
        before = monitor.status()
        monkeypatch.setattr(
            monitor.executor,
            "analyze_batch",
            lambda trees, *args, **kwargs: [AnalysisError("injected") for _ in trees],
        )
        with pytest.raises(AnalysisError, match="injected"):
            monitor.apply_update(update(1, x1=0.5))
        assert monitor.status() == before
        monkeypatch.undo()
        delta = monitor.apply_update(update(2, x1=0.5))
        assert delta.changed_events == ("x1",)


class TestLifecycle:
    def test_run_drains_the_feed_and_closes_the_stream(self):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree)
        applied = monitor.run(SyntheticFeed(tree, updates=5, seed=1))
        assert applied == 5
        assert monitor.events.closed
        kinds = [event.kind for event in monitor.events.events_after(0)]
        assert kinds[0] == "base" and kinds[-1] == "end"
        assert kinds.count("delta") == 5

    def test_max_updates_stops_early(self):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree)
        assert monitor.run(SyntheticFeed(tree, updates=50, seed=1), max_updates=3) == 3

    def test_start_twice_raises(self):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree)
        monitor.start(SyntheticFeed(tree, updates=2, seed=1))
        try:
            with pytest.raises(MonitorError):
                monitor.start(SyntheticFeed(tree, updates=2, seed=1))
        finally:
            monitor.stop()

    def test_stop_closes_the_stream(self):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree)
        monitor.start(SyntheticFeed(tree, updates=10_000, seed=1, interval_s=0.01))
        monitor.stop()
        assert monitor.events.closed
        assert not monitor.running

    def test_status_document_shape(self):
        tree = fire_protection_system()
        monitor = TreeMonitor(tree, rules=[MpmcsChanged()])
        monitor.run(SyntheticFeed(tree, updates=2, seed=1))
        status = monitor.status()
        assert status["tree"] == tree.name
        assert status["updates"] == 2 and status["last_seq"] == 2
        assert status["stream_closed"] is True
        assert status["rules"] == [{"rule": "mpmcs_changed"}]


class TestAcceptance:
    """ISSUE acceptance: 100+ updates, byte-identity, zero misses, alerts."""

    def test_end_to_end_monitoring_run(self, registry):
        tree = fire_protection_system()
        session = AnalysisSession(cache=ArtifactCache())
        monitor = TreeMonitor(
            tree,
            session=session,
            rules=[
                PTopThreshold(0.3, hysteresis=0.05),
                MpmcsChanged(),
            ],
        )

        # A controlled prefix drives each alert kind across its trigger
        # exactly once, then a long wobbly tail (neither crossing the
        # threshold again nor moving the MPMCS) exercises hysteresis.
        updates = [
            update(1, x1=0.9, x2=0.9),     # ptop ~0.81: threshold fires
            update(2, x1=0.88),            # still above: suppressed
            update(3, x1=1e-6, x2=1e-6),   # MPMCS -> {x5, x6}: identity fires;
                                           # ptop ~0.01: threshold re-arms
        ]
        updates += [
            update(seq, x7=0.05 + (seq % 2) * 0.001) for seq in range(4, 105)
        ]
        assert len(updates) >= 100

        # Warmup: base analysis plus the first update populate every
        # structure-keyed artifact (cut sets, CNF fragments, BDD).
        monitor.ensure_base()
        monitor.apply_update(updates[0])
        warm_misses = session.cache_info()["misses"]

        for item in updates[1:]:
            monitor.apply_update(item)

        # 1. Zero new cache misses after warmup: every update was a pure
        #    weight-only re-solve against warm structure-keyed artifacts.
        assert session.cache_info()["misses"] == warm_misses

        # 2. Each alert kind fired exactly once under hysteresis.
        by_rule = {}
        for alert in monitor.engine.alerts:
            by_rule[alert.rule] = by_rule.get(alert.rule, 0) + 1
        assert by_rule == {"ptop_above_0.3": 1, "mpmcs_identity_changed": 1}
        assert registry.counter_value("repro_monitor_alerts_total") == 2

        # 3. The latency histogram counted every applied update.
        assert registry.histogram_count(
            "repro_monitor_update_latency_seconds"
        ) == len(updates)
        assert registry.counter_value("repro_monitor_updates_total") == len(updates)

        # 4. Streamed deltas are byte-identical to a fresh sequential
        #    re-analysis of the same cumulative probability states.
        deltas = [
            event.data
            for event in monitor.events.events_after(0)
            if event.kind == "delta"
        ]
        assert len(deltas) == len(updates)

        sequential = SweepExecutor(AnalysisSession(), backend="maxsat")
        prepared = sequential.prepare_analyses()
        state = dict(tree.probabilities())
        for item, streamed in zip(updates, deltas):
            for name, value in item.values:
                state[name] = value
            patched = tree.copy()
            for name, value in state.items():
                patched.set_probability(name, value)
            report = sequential.analyze_tree(patched, prepared, top_k=5)
            fresh_ptop = (
                report.top_event.best_estimate if report.top_event else None
            )
            assert json.dumps(streamed["ptop"], sort_keys=True) == json.dumps(
                fresh_ptop, sort_keys=True
            )
            assert streamed["mpmcs"] == list(report.mpmcs.events)
            assert streamed["mpmcs_probability"] == report.mpmcs.probability
