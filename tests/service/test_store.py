"""Disk artifact store: format integrity, contention, crash and cold-start tests."""

import dataclasses
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.api.cache import (
    ARTIFACT_CUT_SETS,
    ARTIFACT_ENCODING,
    ARTIFACT_SUBTREE_CUT_SETS,
    ArtifactCache,
    structural_hash,
)
from repro.api.session import AnalysisSession
from repro.core.encoder import encode_mpmcs
from repro.fta.builder import FaultTreeBuilder
from repro.maxsat.instance import WPMaxSATInstance
from repro.service.store import FORMAT_VERSION, MAGIC, DiskArtifactStore
from repro.workloads.library import fire_protection_system

KEY = "a" * 64


class TestRoundTrip:
    def test_store_then_load(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        value = (frozenset({"x1", "x2"}), frozenset({"x5"}))
        store.store(KEY, "cut-sets", value)
        found, loaded = store.load(KEY, "cut-sets")
        assert found and loaded == value

    def test_missing_key_is_a_miss(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        found, value = store.load("f" * 64, "cut-sets")
        assert not found and value is None
        assert store.stats()["load_misses"] == 1

    def test_kinds_are_namespaced(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.store(KEY, "kind-a", 1)
        store.store(KEY, "kind-b", 2)
        assert store.load(KEY, "kind-a") == (True, 1)
        assert store.load(KEY, "kind-b") == (True, 2)
        assert len(store) == 2

    def test_unpicklable_value_is_skipped_not_raised(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.store(KEY, "kind", lambda: None)  # lambdas don't pickle
        assert store.stats()["skipped_unpicklable"] == 1
        assert store.load(KEY, "kind")[0] is False

    def test_second_store_handle_sees_entries(self, tmp_path):
        DiskArtifactStore(tmp_path).store(KEY, "kind", {"v": 1})
        assert DiskArtifactStore(tmp_path).load(KEY, "kind") == (True, {"v": 1})


class TestCorruption:
    """Torn and corrupt entries must read as misses and be dropped."""

    def _entry_path(self, store: DiskArtifactStore) -> Path:
        store.store(KEY, "kind", list(range(100)))
        path = store.path_for(KEY, "kind")
        assert path.is_file()
        return path

    def test_truncated_entry_detected_and_dropped(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        path = self._entry_path(store)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # torn write
        found, _ = store.load(KEY, "kind")
        assert not found
        assert not path.exists(), "corrupt entry must be removed"
        assert store.stats()["corrupt_dropped"] == 1

    def test_bit_flip_in_payload_detected(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        path = self._entry_path(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.load(KEY, "kind")[0] is False

    def test_foreign_file_detected(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        path = store.path_for(KEY, "kind")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an artifact at all")
        assert store.load(KEY, "kind")[0] is False

    def test_wrong_format_version_detected(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        path = self._entry_path(store)
        blob = bytearray(path.read_bytes())
        # The 4 bytes after the magic are the big-endian format version.
        blob[len(MAGIC) : len(MAGIC) + 4] = (FORMAT_VERSION + 1).to_bytes(4, "big")
        path.write_bytes(bytes(blob))
        assert store.load(KEY, "kind")[0] is False

    def test_raw_pickle_is_never_trusted(self, tmp_path):
        """An unchecksummed file (e.g. from a foreign tool) must not load."""
        store = DiskArtifactStore(tmp_path)
        path = store.path_for(KEY, "kind")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"v": 1}))
        assert store.load(KEY, "kind")[0] is False

    def test_sweep_temp_files(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        path = store.path_for(KEY, "kind")
        path.parent.mkdir(parents=True, exist_ok=True)
        (path.parent / f".{KEY[:8]}.abandoned.tmp").write_bytes(b"partial")
        assert store.sweep_temp_files() == 1


class TestContention:
    def test_concurrent_writers_same_key(self, tmp_path):
        """Racing writers of one content-addressed entry are benign."""
        value = {"payload": list(range(500))}
        errors = []

        def hammer():
            try:
                store = DiskArtifactStore(tmp_path)
                for _ in range(25):
                    store.store(KEY, "kind", value)
                    found, loaded = store.load(KEY, "kind")
                    # os.replace is atomic: once any writer has published,
                    # every read sees a complete, verified entry.
                    assert found and loaded == value
            except Exception as exc:  # noqa: BLE001 - collected for the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert DiskArtifactStore(tmp_path).load(KEY, "kind") == (True, value)

    def test_concurrent_writers_distinct_keys(self, tmp_path):
        keys = [f"{index:02x}" * 32 for index in range(24)]
        errors = []

        def writer(part):
            try:
                store = DiskArtifactStore(tmp_path)
                for key in part:
                    store.store(key, "kind", {"key": key})
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(keys[index::4],)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        store = DiskArtifactStore(tmp_path)
        assert len(store) == len(keys)
        for key in keys:
            assert store.load(key, "kind") == (True, {"key": key})


class TestColdStart:
    """A fresh process must reuse artifacts a previous process computed."""

    def test_cold_start_reuses_warm_store(self, tmp_path):
        # Process 1: a real subprocess analyses the Fig. 1 tree against the store.
        script = (
            "from repro.api.cache import ArtifactCache\n"
            "from repro.api.session import AnalysisSession\n"
            "from repro.service.store import DiskArtifactStore\n"
            "from repro.workloads.library import fire_protection_system\n"
            f"cache = ArtifactCache(backend=DiskArtifactStore({str(tmp_path)!r}))\n"
            "session = AnalysisSession(cache=cache)\n"
            "report = session.analyze(fire_protection_system(),\n"
            "                         ['mpmcs', 'top_event', 'mcs'], backend='mocus')\n"
            "assert report.mpmcs.events == ('x1', 'x2')\n"
            "print(cache.store_hits, cache.store_misses)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        first = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert first.returncode == 0, first.stderr
        assert DiskArtifactStore(tmp_path).stats()["entries"] > 0

        # Process 2 (this one): a brand-new cache over the same store path.
        cache = ArtifactCache(backend=DiskArtifactStore(tmp_path))
        session = AnalysisSession(cache=cache)
        report = session.analyze(
            fire_protection_system(), ["mpmcs", "top_event", "mcs"], backend="mocus"
        )
        assert report.mpmcs.events == ("x1", "x2")
        assert cache.store_hits > 0, "cold-start process must hit the warm store"
        assert cache.misses_for(ARTIFACT_CUT_SETS) == 1  # memory miss ...
        assert cache._store_hits.get(ARTIFACT_CUT_SETS, 0) == 1  # ... served by disk

    def test_artifacts_survive_within_process_restart_simulation(self, tmp_path):
        """Same-process equivalent (fast path covered without a subprocess)."""
        first = ArtifactCache(backend=DiskArtifactStore(tmp_path))
        AnalysisSession(cache=first).analyze(
            fire_protection_system(), ["mcs"], backend="mocus"
        )
        assert first.store_hits == 0

        second = ArtifactCache(backend=DiskArtifactStore(tmp_path))
        AnalysisSession(cache=second).analyze(
            fire_protection_system(), ["mcs"], backend="mocus"
        )
        assert second.store_hits > 0
        assert second.stats()["store_hits"] == second.store_hits


class TestInvalidation:
    def test_invalidate_reaches_the_disk_tier(self, tmp_path):
        """Explicit invalidation must not be undone by a stale disk re-fetch."""
        store = DiskArtifactStore(tmp_path)
        cache = ArtifactCache(backend=store)
        tree = fire_protection_system()
        cache.get_or_compute(tree, "kind", lambda: "stale")
        assert cache.invalidate(tree) >= 1
        # Both tiers are empty now: the next probe recomputes.
        assert cache.get_or_compute(tree, "kind", lambda: "fresh") == "fresh"
        assert cache.store_hits == 0

    def test_memory_only_invalidation_keeps_disk_entries(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        cache = ArtifactCache(backend=store)
        tree = fire_protection_system()
        cache.get_or_compute(tree, "kind", lambda: "value")
        cache.invalidate(tree, include_backend=False)
        assert cache.get_or_compute(tree, "kind", lambda: "recomputed") == "value"
        assert cache.store_hits == 1

    def test_discard_removes_every_kind(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.store(KEY, "kind-a", 1)
        store.store(KEY, "kind-b", 2)
        assert store.discard(KEY) == 2
        assert store.load(KEY, "kind-a")[0] is False


class TestStoreStats:
    def test_stats_and_clear(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.store(KEY, "kind", [1, 2, 3])
        stats = store.stats()
        assert stats["writes"] == 1
        assert stats["entries"] == 1
        assert stats["format_version"] == FORMAT_VERSION
        assert store.size_bytes() > 0
        assert store.clear() == 1
        assert len(store) == 0

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)


class TestEntriesMemoFreshness:
    def test_new_entry_refreshes_memoised_count(self, tmp_path):
        """Regression: store() must bump the memo so /health never reports a
        stale entry count while the service is writing heavily."""
        store = DiskArtifactStore(tmp_path)
        assert store.stats()["entries"] == 0  # memo populated (TTL starts now)
        store.store(KEY, "cut-sets", {"value": 1})
        assert store.stats()["entries"] == 1  # fresh without waiting the TTL out
        store.store("b" * 64, "cut-sets", {"value": 2})
        store.store("c" * 64, "bdd", {"value": 3})
        assert store.stats()["entries"] == 3

    def test_overwrites_do_not_inflate_the_count(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        assert store.stats()["entries"] == 0
        store.store(KEY, "cut-sets", {"value": 1})
        store.store(KEY, "cut-sets", {"value": 2})  # same key+kind: overwrite
        assert store.stats()["entries"] == 1

    def test_writes_before_first_stats_need_no_memo(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.store(KEY, "cut-sets", {"value": 1})  # no memo yet: nothing to bump
        assert store.stats()["entries"] == 1

    def test_concurrent_same_key_writers_do_not_overcount(self, tmp_path):
        """The check-rename-bump critical section: many threads racing on the
        same small key set must leave the memo at exactly the distinct count."""
        store = DiskArtifactStore(tmp_path)
        assert store.stats()["entries"] == 0  # arm the memo
        keys = [c * 64 for c in "abcde"]
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for key in keys:
                store.store(key, "cut-sets", {"key": key})

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert store.stats()["entries"] == len(keys)
        assert len(store) == len(keys)


class TestGarbageCollection:
    @staticmethod
    def _age(store, key, kind, seconds):
        path = store.path_for(key, kind)
        old = os.stat(path).st_mtime - seconds
        os.utime(path, (old, old))

    def test_noop_without_limits(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.store(KEY, "cut-sets", [1, 2, 3])
        summary = store.gc()
        assert summary == {"removed": 0, "removed_bytes": 0, "protected": 0}
        assert store.load(KEY, "cut-sets")[0]

    def test_age_based_eviction(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.store(KEY, "cut-sets", "old")
        store.store("b" * 64, "cut-sets", "fresh")
        self._age(store, KEY, "cut-sets", 3600)
        summary = store.gc(max_age_s=60)
        assert summary["removed"] == 1 and summary["removed_bytes"] > 0
        assert not store.load(KEY, "cut-sets")[0]
        assert store.load("b" * 64, "cut-sets")[0]

    def test_size_based_eviction_is_oldest_first(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        keys = [ch * 64 for ch in "abcd"]
        for index, key in enumerate(keys):
            store.store(key, "cut-sets", "x" * 100)
            self._age(store, key, "cut-sets", (len(keys) - index) * 100)
        total = store.size_bytes()
        per_entry = total // len(keys)
        store.gc(max_bytes=total - per_entry)  # must evict exactly the oldest
        assert not store.load(keys[0], "cut-sets")[0]
        assert all(store.load(key, "cut-sets")[0] for key in keys[1:])

    def test_max_bytes_zero_clears_unprotected(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.store(KEY, "cut-sets", 1)
        store.store("b" * 64, "bdd", 2)
        summary = store.gc(max_bytes=0)
        assert summary["removed"] == 2
        assert len(store) == 0

    def test_running_campaign_ledger_is_protected(self, tmp_path):
        from repro.campaigns import CampaignSpec, sweep_stage
        from repro.campaigns.ledger import CompletionLedger

        store = DiskArtifactStore(tmp_path)
        spec = CampaignSpec(
            name="gc-test",
            tree={
                "name": "t",
                "top": "TOP",
                "events": [{"name": "A", "probability": 0.1}],
                "gates": [{"name": "TOP", "type": "or", "children": ["A"]}],
            },
            stages=(sweep_stage("s", [{"name": "s0", "patches": []}]),),
        )
        ledger = CompletionLedger(store, spec.campaign_id())
        ledger.store_state(status="running", spec_document=spec.to_dict(), name=spec.name)
        ledger.store_chunk(stage="s", index=0, chunk_hash="c" * 64, result={"ok": 1}, attempts=1)
        store.store(KEY, "cut-sets", "ordinary cache entry")
        summary = store.gc(max_bytes=0, max_age_s=0)
        # Both ledger records survive; the cache entry does not.
        assert summary["protected"] >= 2
        assert ledger.load_chunk("c" * 64)[0]
        assert ledger.load_state()["status"] == "running"
        assert not store.load(KEY, "cut-sets")[0]

    def test_terminal_campaign_ledger_is_evictable(self, tmp_path):
        from repro.campaigns import CampaignSpec, sweep_stage
        from repro.campaigns.ledger import CompletionLedger

        store = DiskArtifactStore(tmp_path)
        spec = CampaignSpec(
            name="gc-done",
            tree={
                "name": "t",
                "top": "TOP",
                "events": [{"name": "A", "probability": 0.1}],
                "gates": [{"name": "TOP", "type": "or", "children": ["A"]}],
            },
            stages=(sweep_stage("s", [{"name": "s0", "patches": []}]),),
        )
        ledger = CompletionLedger(store, spec.campaign_id())
        ledger.store_state(status="done", spec_document=spec.to_dict(), name=spec.name)
        ledger.store_chunk(stage="s", index=0, chunk_hash="c" * 64, result={"ok": 1}, attempts=1)
        summary = store.gc(max_bytes=0)
        assert summary["removed"] == 2 and summary["protected"] == 0
        assert not ledger.load_chunk("c" * 64)[0]

    def test_gc_counters_accumulate_in_stats(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.store(KEY, "cut-sets", "victim")
        store.gc(max_bytes=0)
        store.gc(max_age_s=10)
        stats = store.stats()
        assert stats["gc_runs"] == 2
        assert stats["gc_removed"] == 1
        assert stats["gc_removed_bytes"] > 0

    def test_entry_count_refreshes_after_gc(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.store(KEY, "cut-sets", 1)
        assert store.stats()["entries"] == 1
        store.gc(max_bytes=0)
        assert store.stats()["entries"] == 0


def _ladder(rungs):
    """``OR`` of ``rungs`` two-event ``AND`` gates, every event at 0.1: all
    ``rungs`` minimal cut sets tie."""
    builder = FaultTreeBuilder(f"ladder-{rungs}")
    for rung in range(rungs):
        builder.basic_event(f"a{rung}", 0.1)
        builder.basic_event(f"b{rung}", 0.1)
        builder.and_gate(f"g{rung}", [f"a{rung}", f"b{rung}"])
    builder.or_gate("top", [f"g{rung}" for rung in range(rungs)])
    return builder.top("top").build()


def _cost_only_encoding(tree):
    """The MPMCS encoding as formerly stored: soft weights by scaled cost alone."""
    encoding = encode_mpmcs(tree)
    instance = WPMaxSATInstance(precision=encoding.instance.precision)
    for clause in encoding.instance.hard:
        instance.add_hard(clause)
    for soft in encoding.instance.soft:
        instance.add_soft(soft.literals, soft.weight, label=soft.label)
    return dataclasses.replace(encoding, instance=instance)


class TestRetiredEncodings:
    def test_cost_only_encodings_are_never_read(self, tmp_path):
        tree = _ladder(6)
        store = DiskArtifactStore(tmp_path)
        store.store(structural_hash(tree), "cnf-encoding", _cost_only_encoding(tree))
        cache = ArtifactCache(backend=store)
        report = AnalysisSession(cache=cache).analyze(
            tree, ["mpmcs", "ranking"], backend="maxsat", top_k=3
        )
        expected = AnalysisSession().analyze(
            tree, ["mpmcs", "ranking"], backend="bdd", top_k=3
        )
        assert ARTIFACT_ENCODING != "cnf-encoding"
        assert cache._store_hits.get(ARTIFACT_ENCODING, 0) == 0
        assert [entry.events for entry in report.ranking] == [
            entry.events for entry in expected.ranking
        ]
        assert report.mpmcs.events == ("a0", "b0")
