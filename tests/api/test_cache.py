"""Tests for the structure-keyed artifact cache."""

import hashlib
import json

import pytest

from repro.api.cache import ARTIFACT_CUT_SETS, ArtifactCache, subtree_structure_hashes
from repro.api.session import AnalysisSession
from repro.fta.gates import GateType
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES, fire_protection_system, pressure_tank


def _key(tree):
    """The cache key of ``tree``'s whole-tree artifacts."""
    return subtree_structure_hashes(tree)[tree.top_event]


def structure_payload_hash(tree, node=None):
    """The cache key of the subtree at ``node`` (default: the top event),
    serialised from the tree's gates directly.  Persistent store entries are
    addressed by these bytes, so the compiled structure's hashes must match."""
    node = tree.top_event if node is None else node
    gate = tree.gates.get(node)
    if gate is None:
        payload = f"event:{node}"
    else:
        children = ",".join(sorted(structure_payload_hash(tree, child) for child in gate.children))
        payload = f"gate:{gate.gate_type.value}:{gate.k if gate.k is not None else ''}:{children}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestStructuralHash:
    def test_identical_structure_same_hash(self):
        assert _key(fire_protection_system()) == _key(fire_protection_system())

    def test_name_does_not_affect_hash(self):
        renamed = fire_protection_system().copy(name="another-name")
        assert _key(renamed) == _key(fire_protection_system())

    def test_different_trees_different_hash(self):
        assert _key(fire_protection_system()) != _key(pressure_tank())

    def test_probability_change_keeps_the_key(self):
        tree = fire_protection_system()
        before = _key(tree)
        tree.set_probability("x1", 0.123)
        assert _key(tree) == before

    @pytest.mark.parametrize("name", sorted(NAMED_TREES))
    def test_library_keys_match_one_piece_serialisation(self, name):
        tree = NAMED_TREES[name]()
        assert _key(tree) == structure_payload_hash(tree)

    def test_random_tree_and_copy_keys_match_one_piece_serialisation(self):
        for seed in range(25):
            tree = random_fault_tree(num_basic_events=5 + seed, seed=seed, voting_ratio=0.2)
            assert _key(tree) == structure_payload_hash(tree)
            copy = tree.copy()
            copy.set_probability(sorted(copy.event_names)[0], 0.123456789)
            assert _key(copy) == structure_payload_hash(copy) == _key(tree)


class TestArtifactCache:
    def test_compute_once_then_hit(self):
        cache = ArtifactCache()
        tree = fire_protection_system()
        calls = []

        def build():
            calls.append(1)
            return "artifact"

        assert cache.get_or_compute(tree, "thing", build) == "artifact"
        assert cache.get_or_compute(tree, "thing", build) == "artifact"
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hits_for("thing") == 1 and cache.misses_for("thing") == 1

    def test_kinds_are_independent(self):
        cache = ArtifactCache()
        tree = fire_protection_system()
        cache.get_or_compute(tree, "a", lambda: 1)
        cache.get_or_compute(tree, "b", lambda: 2)
        assert len(cache) == 2
        assert cache.misses == 2 and cache.hits == 0

    def test_structurally_equal_trees_share_artifacts(self):
        cache = ArtifactCache()
        cache.get_or_compute(fire_protection_system(), "x", lambda: "v")
        # A different object with identical structure hits the same entry.
        assert cache.get_or_compute(fire_protection_system(), "x", lambda: "other") == "v"
        assert cache.hits == 1

    def test_mutation_invalidates_automatically(self):
        # A structural edit changes the key; a probability edit does not
        # (every artifact is qualitative).
        cache = ArtifactCache()
        tree = fire_protection_system()
        cache.get_or_compute(tree, "x", lambda: "old")
        tree.set_probability("x1", 0.5)
        assert cache.get_or_compute(tree, "x", lambda: "new") == "old"
        tree.add_basic_event("x9", 0.1)
        tree.add_gate("new-top", GateType.OR, [tree.top_event, "x9"])
        tree.set_top_event("new-top")
        assert cache.get_or_compute(tree, "x", lambda: "new") == "new"

    def test_node_keys_subtree_artifacts(self):
        cache = ArtifactCache()
        tree = fire_protection_system()
        cache.get_or_compute(tree, "x", lambda: "top")
        assert cache.get_or_compute(tree, "x", lambda: "gate", node="detection_failure") == "gate"
        top = tree.top_event
        assert cache.get_or_compute(tree, "x", lambda: "other", node=top) == "top"
        assert cache.hits == 1 and cache.misses == 2

    def test_invalidate_and_clear(self):
        cache = ArtifactCache()
        tree = fire_protection_system()
        cache.get_or_compute(tree, "a", lambda: 1)
        cache.get_or_compute(tree, "b", lambda: 2)
        assert cache.invalidate(tree) == 2
        assert len(cache) == 0
        cache.get_or_compute(tree, "a", lambda: 3)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_stats_shape(self):
        cache = ArtifactCache()
        tree = fire_protection_system()
        cache.get_or_compute(tree, "kind", lambda: None)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["evictions"] == 0
        assert stats["by_kind"]["kind"] == {"hits": 0, "misses": 1, "evictions": 0}


def _canonical(report):
    return json.dumps(report.to_canonical_dict(), sort_keys=True)


class TestInPlaceProbabilityEdit:
    """The cut sets are cached per structure, so an in-place probability
    edit is answered from a cache hit with the new probabilities attached."""

    @pytest.mark.parametrize("backend", ["mocus", "bdd"])
    def test_new_probabilities_from_a_cache_hit(self, backend):
        session = AnalysisSession()
        tree = fire_protection_system()
        before = session.analyze(tree, ["mcs", "ranking"], backend=backend)
        hits = session.artifacts.hits_for(ARTIFACT_CUT_SETS)
        tree.set_probability("x7", 0.9)
        after = session.analyze(tree, ["mcs", "ranking"], backend=backend)
        assert session.artifacts.misses_for(ARTIFACT_CUT_SETS) == 1
        assert session.artifacts.hits_for(ARTIFACT_CUT_SETS) > hits
        assert after.cut_sets.probabilities["x7"] == 0.9
        assert [entry.events for entry in after.ranking] != [
            entry.events for entry in before.ranking
        ]
        fresh = AnalysisSession().analyze(tree, ["mcs", "ranking"], backend=backend)
        assert _canonical(after) == _canonical(fresh)


class _DictBackend:
    """In-memory ArtifactStoreBackend double with call recording."""

    def __init__(self):
        self.entries = {}
        self.loads = []
        self.stores = []

    def load(self, key_hash, kind):
        self.loads.append((key_hash, kind))
        key = (key_hash, kind)
        if key in self.entries:
            return True, self.entries[key]
        return False, None

    def store(self, key_hash, kind, value):
        self.stores.append((key_hash, kind))
        self.entries[(key_hash, kind)] = value


class TestBoundedCache:
    """The LRU entry cap — a long sweep must not grow the cache without limit."""

    def test_eviction_past_cap(self):
        cache = ArtifactCache(max_entries=2)
        tree = fire_protection_system()
        cache.get_or_compute(tree, "a", lambda: 1)
        cache.get_or_compute(tree, "b", lambda: 2)
        cache.get_or_compute(tree, "c", lambda: 3)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.stats()["by_kind"]["a"]["evictions"] == 1

    def test_lru_order_respects_recent_hits(self):
        cache = ArtifactCache(max_entries=2)
        tree = fire_protection_system()
        cache.get_or_compute(tree, "a", lambda: 1)
        cache.get_or_compute(tree, "b", lambda: 2)
        cache.get_or_compute(tree, "a", lambda: 0)  # refresh "a"
        cache.get_or_compute(tree, "c", lambda: 3)  # evicts "b", not "a"
        calls = []
        cache.get_or_compute(tree, "a", lambda: calls.append(1))
        assert not calls, '"a" must have survived as most recently used'

    def test_long_sweep_stays_under_cap(self):
        """Satellite acceptance: a long sweep's session cache respects the cap."""
        from repro.api.session import AnalysisSession
        from repro.scenarios import SweepExecutor, probability_sweep

        cap = 24
        cache = ArtifactCache(max_entries=cap)
        executor = SweepExecutor(AnalysisSession(cache=cache))
        tree = fire_protection_system()
        report = executor.run(
            tree, probability_sweep("x1", start=1e-4, stop=0.5, steps=120)
        )
        assert len(report) == 120
        assert len(cache) <= cap
        assert cache.stats()["entries"] <= cap
        # The sweep results are unaffected by the bound: spot-check monotone
        # top-event growth along the (increasing) probability sweep.
        tops = [outcome.top_event for outcome in report.ok_outcomes]
        assert all(a <= b + 1e-15 for a, b in zip(tops, tops[1:]))

    def test_unbounded_by_default(self):
        cache = ArtifactCache()
        tree = fire_protection_system()
        for index in range(50):
            cache.get_or_compute(tree, f"kind-{index}", lambda: index)
        assert len(cache) == 50 and cache.evictions == 0


class TestBackendTier:
    """The ArtifactStoreBackend hook: probe on miss, write through on compute."""

    def test_miss_probes_backend_and_writes_through(self):
        backend = _DictBackend()
        cache = ArtifactCache(backend=backend)
        tree = fire_protection_system()
        cache.get_or_compute(tree, "kind", lambda: "computed")
        assert backend.loads and backend.stores  # probed, then persisted
        assert cache.store_misses == 1 and cache.store_hits == 0

    def test_backend_hit_skips_compute(self):
        backend = _DictBackend()
        first = ArtifactCache(backend=backend)
        tree = fire_protection_system()
        first.get_or_compute(tree, "kind", lambda: "computed")

        second = ArtifactCache(backend=backend)  # fresh memory tier, same backend
        calls = []
        value = second.get_or_compute(tree, "kind", lambda: calls.append(1) or "recomputed")
        assert value == "computed" and not calls
        assert second.store_hits == 1
        stats = second.stats()
        assert stats["store_hits"] == 1 and stats["store_misses"] == 0

    def test_backend_hit_promotes_to_memory(self):
        backend = _DictBackend()
        cache = ArtifactCache(backend=backend)
        tree = fire_protection_system()
        backend.entries[(_key(tree), "kind")] = "persisted"
        cache.get_or_compute(tree, "kind", lambda: "recomputed")
        cache.get_or_compute(tree, "kind", lambda: "recomputed")
        assert cache.hits == 1  # second probe answered by memory, not backend
        assert len(backend.loads) == 1

    def test_put_does_not_write_through(self):
        backend = _DictBackend()
        cache = ArtifactCache(backend=backend)
        tree = fire_protection_system()
        cache.put(tree, "kind", "seeded")
        assert not backend.stores
        calls = []
        assert cache.get_or_compute(tree, "kind", lambda: calls.append(1)) == "seeded"
        assert not calls

    def test_stats_hide_store_counters_without_backend(self):
        cache = ArtifactCache()
        assert "store_hits" not in cache.stats()
        cache.get_or_compute(fire_protection_system(), "kind", lambda: 1)
        assert "store_hits" not in cache.stats()["by_kind"]["kind"]

    def test_per_kind_store_counters(self):
        """Satellite acceptance: store hits/misses are attributable per kind."""
        backend = _DictBackend()
        first = ArtifactCache(backend=backend)
        tree = fire_protection_system()
        first.get_or_compute(tree, "cut-sets", lambda: "a")
        first.get_or_compute(tree, "cnf", lambda: "b")

        second = ArtifactCache(backend=backend)
        second.get_or_compute(tree, "cut-sets", lambda: "a")  # store hit
        second.get_or_compute(tree, "fresh-kind", lambda: "c")  # store miss
        assert second.store_hits_for("cut-sets") == 1
        assert second.store_misses_for("cut-sets") == 0
        assert second.store_hits_for("fresh-kind") == 0
        assert second.store_misses_for("fresh-kind") == 1
        by_kind = second.stats()["by_kind"]
        assert by_kind["cut-sets"]["store_hits"] == 1
        assert by_kind["cut-sets"]["store_misses"] == 0
        assert by_kind["fresh-kind"]["store_hits"] == 0
        assert by_kind["fresh-kind"]["store_misses"] == 1
        # The aggregates stay consistent with the per-kind view.
        stats = second.stats()
        assert stats["store_hits"] == sum(
            counters.get("store_hits", 0) for counters in by_kind.values()
        )
        assert stats["store_misses"] == sum(
            counters.get("store_misses", 0) for counters in by_kind.values()
        )
