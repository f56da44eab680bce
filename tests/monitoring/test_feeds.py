"""Feed adapters: update validation, synthetic determinism, file tailing."""

import json
import threading
import time

import pytest

from repro.monitoring.feeds import (
    FeedError,
    FileTailFeed,
    ProbabilityUpdate,
    SyntheticFeed,
    feed_from_spec,
)
from repro.scenarios.serialization import (
    SerializationError,
    update_from_dict,
    update_to_dict,
)
from repro.workloads.library import fire_protection_system


class TestProbabilityUpdate:
    def test_create_sorts_and_coerces(self):
        update = ProbabilityUpdate.create({"b": 0.5, "a": 0.25}, seq=3, source="s")
        assert update.values == (("a", 0.25), ("b", 0.5))
        assert update.as_mapping() == {"a": 0.25, "b": 0.5}

    def test_rejects_empty_and_out_of_range_values(self):
        with pytest.raises(FeedError):
            ProbabilityUpdate.create({})
        with pytest.raises(FeedError):
            ProbabilityUpdate.create({"a": 1.5})
        with pytest.raises(FeedError):
            ProbabilityUpdate.create({"a": -0.1})

    def test_rejects_zero_naming_the_basic_event_range(self):
        # A basic event's probability lies in (0, 1], so the feed refuses 0.
        with pytest.raises(FeedError, match=r"'a' must lie in \(0, 1\], got 0\.0"):
            ProbabilityUpdate.create({"a": 0.0})
        assert ProbabilityUpdate.create({"a": 1.0}).as_mapping() == {"a": 1.0}

    def test_wire_round_trip(self):
        update = ProbabilityUpdate.create(
            {"x1": 0.02}, timestamp=12.5, seq=7, source="sensor"
        )
        document = update.to_dict()
        assert document == {
            "values": {"x1": 0.02}, "ts": 12.5, "seq": 7, "source": "sensor"
        }
        assert ProbabilityUpdate.from_dict(document) == update

    def test_from_dict_rejects_malformed_documents(self):
        with pytest.raises(FeedError):
            ProbabilityUpdate.from_dict({"ts": 1.0})
        with pytest.raises(FeedError):
            ProbabilityUpdate.from_dict({"values": {"a": "not-a-number"}})
        with pytest.raises(FeedError):
            ProbabilityUpdate.from_dict({"values": {"a": 0.1}, "seq": "seven"})
        with pytest.raises(FeedError):
            ProbabilityUpdate.from_dict([1, 2])

    def test_serialization_facade_reraises_as_serialization_error(self):
        update = update_from_dict({"values": {"x1": 0.5}, "seq": 1})
        assert update_to_dict(update)["seq"] == 1
        with pytest.raises(SerializationError):
            update_from_dict({"values": {}})


class TestSyntheticFeed:
    def test_same_seed_same_sequence(self):
        tree = fire_protection_system()
        first = [u.values for u in SyntheticFeed(tree, updates=10, seed=3)]
        second = [u.values for u in SyntheticFeed(tree, updates=10, seed=3)]
        assert first == second and len(first) == 10

    def test_seq_counts_from_one(self):
        tree = fire_protection_system()
        updates = list(SyntheticFeed(tree, updates=4, seed=0))
        assert [u.seq for u in updates] == [1, 2, 3, 4]
        assert all(u.source == "synthetic" for u in updates)

    def test_values_stay_probabilities(self):
        tree = fire_protection_system()
        for update in SyntheticFeed(tree, updates=50, seed=1, volatility=2.0):
            for _, value in update.values:
                assert 0.0 <= value <= 1.0


class TestFileTailFeed:
    def test_reads_existing_then_appended_lines(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text(
            json.dumps({"values": {"x1": 0.1}}) + "\n", encoding="utf-8"
        )
        feed = FileTailFeed(str(path), poll_interval_s=0.01, idle_timeout_s=0.5)

        def append_later():
            time.sleep(0.1)
            with open(path, "a", encoding="utf-8") as stream:
                stream.write(json.dumps({"values": {"x2": 0.2}, "seq": 9}) + "\n")

        threading.Thread(target=append_later, daemon=True).start()
        updates = list(feed)
        assert [u.as_mapping() for u in updates] == [{"x1": 0.1}, {"x2": 0.2}]
        # Lines without a seq get the feed's running counter; explicit wins.
        assert [u.seq for u in updates] == [1, 9]

    def test_malformed_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text(
            "this is not json\n"
            + json.dumps({"values": {"x1": 2.0}}) + "\n"  # out of range
            + json.dumps({"values": {"x1": 0.0}}) + "\n"  # no basic event has p = 0
            + json.dumps({"values": {"x1": 0.3}}) + "\n"
            + "\n",  # blank
            encoding="utf-8",
        )
        feed = FileTailFeed(str(path), poll_interval_s=0.01, idle_timeout_s=0.05)
        updates = list(feed)
        assert [u.as_mapping() for u in updates] == [{"x1": 0.3}]

    def test_idle_timeout_terminates_iteration(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text("", encoding="utf-8")
        feed = FileTailFeed(str(path), poll_interval_s=0.01, idle_timeout_s=0.05)
        started = time.monotonic()
        assert list(feed) == []
        assert time.monotonic() - started < 5.0


class TestZeroReadingInALiveFeed:
    def test_monitor_skips_a_zero_reading_and_carries_on(self, tmp_path):
        from repro.monitoring.monitor import TreeMonitor

        path = tmp_path / "feed.jsonl"
        path.write_text(
            "".join(
                json.dumps({"values": values}) + "\n"
                for values in ({"x1": 0.2}, {"x1": 0.0}, {"x2": 0.2})
            ),
            encoding="utf-8",
        )
        monitor = TreeMonitor(fire_protection_system(), backend="maxsat")
        feed = FileTailFeed(str(path), poll_interval_s=0.01, idle_timeout_s=0.05)
        assert monitor.run(feed) == 2
        assert monitor.status()["updates"] == 2
        # The stream was still open for the reading after the zero one: its
        # update was streamed before the final "end" event closed it.
        events = monitor.events.events_after(0)
        deltas = [event.data for event in events if event.kind == "delta"]
        # x1 is 0.2 in Fig. 1 already; the third reading moves x2 from 0.1.
        assert [delta["changed_events"] for delta in deltas] == [[], ["x2"]]
        assert events[-1].kind == "end" and events[-1].data["updates"] == 2


class TestFeedFromSpec:
    def test_synthetic_spec(self):
        tree = fire_protection_system()
        feed = feed_from_spec(
            {"type": "synthetic", "updates": 7, "seed": 2}, tree=tree
        )
        assert isinstance(feed, SyntheticFeed)
        assert feed.updates == 7 and feed.seed == 2

    def test_synthetic_spec_needs_a_tree(self):
        with pytest.raises(FeedError):
            feed_from_spec({"type": "synthetic"})

    def test_file_spec(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        feed = feed_from_spec(
            {"type": "file", "path": str(path), "idle_timeout_s": 0.1}
        )
        assert isinstance(feed, FileTailFeed)
        assert feed.idle_timeout_s == 0.1

    def test_file_spec_needs_a_path(self):
        with pytest.raises(FeedError):
            feed_from_spec({"type": "file"})

    def test_http_spec_needs_a_url(self):
        with pytest.raises(FeedError):
            feed_from_spec({"type": "http"})

    def test_unknown_type_rejected(self):
        with pytest.raises(FeedError):
            feed_from_spec({"type": "carrier-pigeon"})
        with pytest.raises(FeedError):
            feed_from_spec("synthetic")
