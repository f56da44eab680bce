"""Per-session artifact cache keyed on a structural fault-tree hash.

Composite requests such as ``["mpmcs", "top_event", "importance"]`` need the
same expensive intermediates several times: the Tseitin CNF encoding (MaxSAT
pipeline and top-k enumeration), the minimal cut sets (importance measures,
probability bounds, MPMCS baselines) and the compiled BDD (exact probability,
BDD cut sets).  :class:`ArtifactCache` memoises them once per structurally
identical tree so each is computed exactly once per
:class:`~repro.api.session.AnalysisSession`.

The cache key is a content hash over everything that influences analysis
results — top event, gate structure and basic-event probabilities — and
explicitly *not* the tree's display name, so re-parsing or renaming a model
still hits.  Mutating a tree (e.g. :meth:`FaultTree.set_probability`) changes
the hash, which invalidates stale artifacts automatically.

Beyond whole-tree artifacts the cache also keys artifacts by *subtree*: the
:mod:`repro.scenarios` sweep engine stores the minimal cut sets of every gate
under a structure-only hash of the subtree rooted there
(:func:`subtree_structure_hashes`).  Probabilities are deliberately excluded
from that hash because the qualitative cut-set structure does not depend on
them — a probability-only what-if scenario therefore reuses the cut sets of
*every* gate, and a structural patch (added redundancy, a removed event)
invalidates only the gates on the path from the edit to the top event.
The compiled BDD is keyed the same way, by the structure-only hash of the
top event, so one diagram serves every probability of one structure.
Per-gate CNF fragments are not cached here: a fragment depends on the gate's
shape alone, so :func:`repro.core.encoder.shape_fragment` memoises it per
process.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar
from weakref import WeakKeyDictionary

from repro.fta.tree import FaultTree
from repro.observability.metrics import get_metrics

__all__ = [
    "ARTIFACT_BDD",
    "ARTIFACT_CAMPAIGN_LEDGER",
    "ARTIFACT_CUT_SETS",
    "ARTIFACT_ENCODING",
    "ARTIFACT_SUBTREE_CUT_SETS",
    "ArtifactCache",
    "ArtifactStoreBackend",
    "structural_hash",
    "subtree_structure_hashes",
]

#: Well-known artifact kinds shared by the built-in backends.  The MPMCS
#: encoding and the minimal cut sets are keyed by the whole-tree hash.  The
#: encoding's kind is not ``"cnf-encoding"``: entries stored under that name
#: weight events by scaled cost alone, so their optima tie, and a persistent
#: store must never serve them.
ARTIFACT_ENCODING = "mpmcs-encoding"
ARTIFACT_CUT_SETS = "minimal-cut-sets"
#: Compiled BDD keyed by the *structure-only* hash of the top event's subtree
#: (:meth:`ArtifactCache.get_or_compute_subtree`).  The diagram encodes the
#: monotone structure function alone — probabilities only enter at
#: evaluation time — so one compilation serves every probability-perturbed
#: tree of a sweep or monitor (see :class:`repro.api.backends.BDDBackend`).
ARTIFACT_BDD = "bdd"
#: Per-gate minimal cut sets keyed by structure-only subtree hash (used by the
#: incremental scenario-sweep path in :mod:`repro.scenarios`).
ARTIFACT_SUBTREE_CUT_SETS = "subtree-cut-sets"
#: Campaign completion-ledger entries (see :mod:`repro.campaigns.ledger`):
#: per-chunk results keyed by a hash of campaign id + chunk content, plus one
#: state record per campaign keyed by the campaign id alone.  Written through
#: :class:`repro.service.store.DiskArtifactStore` with the same atomic,
#: versioned, checksummed entry format as every other artifact kind, which is
#: what makes a killed campaign resumable: the ledger either contains a whole
#: verified chunk result or nothing.
ARTIFACT_CAMPAIGN_LEDGER = "campaign-ledger"


class ArtifactStoreBackend:
    """Second-tier storage behind an :class:`ArtifactCache`.

    The in-memory cache probes its backend on a miss and writes every freshly
    computed artifact through to it, which is how artifacts outlive a process:
    :class:`repro.service.store.DiskArtifactStore` implements this protocol
    over a content-addressed on-disk layout shared between processes.  The
    keys handed to a backend are the same ``(content_hash, kind)`` pairs the
    memory tier uses, so any two caches pointed at one backend exchange
    artifacts for structurally identical (sub)trees automatically.
    """

    def load(self, key_hash: str, kind: str) -> Tuple[bool, Any]:
        """Return ``(found, value)`` for the artifact stored under the key."""
        raise NotImplementedError

    def store(self, key_hash: str, kind: str, value: Any) -> None:
        """Persist ``value`` under the key (best effort; may silently skip)."""
        raise NotImplementedError

    def discard(self, key_hash: str) -> int:
        """Drop every kind stored under ``key_hash``; returns the count removed.

        Called by :meth:`ArtifactCache.invalidate` so that explicit
        invalidation reaches the persistent tier too — otherwise the next
        miss would re-fetch the stale entry from disk.  The default is a
        no-op for backends without deletion support.
        """
        return 0

T = TypeVar("T")


def structural_hash(tree: FaultTree) -> str:
    """Content hash of a fault tree's analysis-relevant structure.

    Two trees receive the same hash exactly when they have the same top
    event, the same gates (type, ``k``, child order) and the same basic
    events with bit-identical probabilities.  Names of trees and descriptions
    of nodes are ignored — they do not influence any analysis result.
    """
    events = sorted(
        (name, event.probability.hex()) for name, event in tree.events.items()
    )
    gates = sorted(
        (gate.name, gate.gate_type.value, gate.k if gate.k is not None else -1, list(gate.children))
        for gate in tree.gates.values()
    )
    payload = json.dumps(
        {"top": tree.top_event, "events": events, "gates": gates},
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def subtree_structure_hashes(tree: FaultTree) -> Dict[str, str]:
    """Structure-only content hash of the subtree rooted at every node.

    The hash of a basic event is derived from its *name* only, and the hash
    of a gate from its type, its voting threshold and the (sorted) hashes of
    its children — probabilities never enter.  Two nodes receive the same
    hash exactly when the monotone structure functions of their subtrees are
    syntactically identical up to child order, which is the invariant the
    subtree-level cut-set cache relies on: minimal cut sets are a purely
    qualitative artifact, so they can be reused across any two trees (or
    scenarios) whose subtrees share a structure hash regardless of how the
    event probabilities differ.

    Only nodes reachable from the top event are hashed.
    """
    gates = tree.gates
    hashes: Dict[str, str] = {}
    for name in tree.topological_order():
        gate = gates.get(name)
        if gate is None:
            payload = f"event:{name}"
        else:
            children = ",".join(sorted(hashes[child] for child in gate.children))
            payload = f"gate:{gate.gate_type.value}:{gate.k if gate.k is not None else ''}:{children}"
        hashes[name] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return hashes


class ArtifactCache:
    """Memoisation table for expensive per-tree analysis intermediates.

    Entries are keyed by ``(structural_hash(tree), kind)``.  The cache keeps
    hit/miss counters per kind so tests (and curious users) can verify that a
    composite request computed each artifact exactly once.

    Parameters
    ----------
    max_entries:
        Optional bound on the number of in-memory entries.  When set, the
        cache evicts least-recently-used entries once the bound is exceeded
        (per-kind eviction counters appear in :meth:`stats`), so a
        long-running service or an unbounded sweep cannot grow the memory
        tier without limit.  ``None`` (the default) keeps the historical
        unbounded behaviour.
    backend:
        Optional :class:`ArtifactStoreBackend` probed on every memory miss
        and written through on every computation, e.g. the persistent
        :class:`repro.service.store.DiskArtifactStore`.  Backend hits and
        misses are counted separately from memory hits (``store_hits`` /
        ``store_misses`` in :meth:`stats`).
    """

    def __init__(
        self,
        *,
        max_entries: Optional[int] = None,
        backend: Optional[ArtifactStoreBackend] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        self._store: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self.max_entries = max_entries
        self.backend = backend
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._evictions: Dict[str, int] = {}
        self._store_hits: Dict[str, int] = {}
        self._store_misses: Dict[str, int] = {}
        # Per-object memo of (tree.version, hash): a composite request probes
        # the cache several times per tree, and re-serialising the whole tree
        # for every probe is O(tree) redundant work.  FaultTree.version is
        # bumped on every mutation, which keeps the memo safe.
        self._hash_memo: "WeakKeyDictionary[FaultTree, Tuple[int, str]]" = WeakKeyDictionary()
        # Same idea for the per-node structure hashes used by subtree artifacts.
        self._structure_memo: "WeakKeyDictionary[FaultTree, Tuple[int, Dict[str, str]]]" = (
            WeakKeyDictionary()
        )

    def key_for(self, tree: FaultTree) -> str:
        """The structural cache key of ``tree`` (memoised per tree object)."""
        memo = self._hash_memo.get(tree)
        if memo is not None and memo[0] == tree.version:
            return memo[1]
        digest = structural_hash(tree)
        self._hash_memo[tree] = (tree.version, digest)
        return digest

    def _lookup(self, key: Tuple[str, str], kind: str) -> Tuple[bool, Any]:
        """Probe the memory tier, then the backend; count at the tier that answered."""
        registry = get_metrics()
        if key in self._store:
            self._hits[kind] = self._hits.get(kind, 0) + 1
            registry.inc("repro_cache_hits_total", kind=kind)
            self._store.move_to_end(key)
            return True, self._store[key]
        self._misses[kind] = self._misses.get(kind, 0) + 1
        registry.inc("repro_cache_misses_total", kind=kind)
        if self.backend is not None:
            found, value = self.backend.load(key[0], kind)
            if found:
                self._store_hits[kind] = self._store_hits.get(kind, 0) + 1
                registry.inc("repro_store_hits_total", kind=kind)
                self._insert(key, value)
                return True, value
            self._store_misses[kind] = self._store_misses.get(kind, 0) + 1
            registry.inc("repro_store_misses_total", kind=kind)
        return False, None

    def _insert(self, key: Tuple[str, str], value: Any) -> None:
        """Insert into the memory tier, evicting LRU entries past the bound."""
        self._store[key] = value
        self._store.move_to_end(key)
        if self.max_entries is not None:
            while len(self._store) > self.max_entries:
                evicted_key, _ = self._store.popitem(last=False)
                evicted_kind = evicted_key[1]
                self._evictions[evicted_kind] = self._evictions.get(evicted_kind, 0) + 1

    def get_or_compute(self, tree: FaultTree, kind: str, compute: Callable[[], T]) -> T:
        """Return the cached artifact of ``kind`` for ``tree``, computing it once."""
        key = (self.key_for(tree), kind)
        found, value = self._lookup(key, kind)
        if found:
            return value
        value = compute()
        self._insert(key, value)
        if self.backend is not None:
            self.backend.store(key[0], kind, value)
        return value

    def put(self, tree: FaultTree, kind: str, value: Any) -> None:
        """Seed the cache entry of ``kind`` for ``tree`` without counting a miss.

        Used by producers that obtained the artifact through a cheaper route
        (e.g. the incremental sweep assembling cut sets from cached subtrees)
        so later :meth:`get_or_compute` probes hit instead of recomputing.
        Seeded entries are *not* written through to the backend: they are
        per-scenario assemblies whose building blocks (the subtree artifacts)
        are already persisted.
        """
        self._insert((self.key_for(tree), kind), value)

    def structure_keys_for(self, tree: FaultTree) -> Dict[str, str]:
        """Per-node structure-only hashes of ``tree`` (memoised per tree object)."""
        memo = self._structure_memo.get(tree)
        if memo is not None and memo[0] == tree.version:
            return memo[1]
        hashes = subtree_structure_hashes(tree)
        self._structure_memo[tree] = (tree.version, hashes)
        return hashes

    def get_or_compute_subtree(
        self, tree: FaultTree, node: str, kind: str, compute: Callable[[], T]
    ) -> T:
        """Return the artifact of ``kind`` for the subtree of ``tree`` at ``node``.

        Keyed by the node's structure-only hash, so the entry is shared by
        every tree (base model or perturbed scenario) containing a
        structurally identical subtree — probabilities do not participate in
        the key and the stored value must therefore be purely qualitative.
        """
        key = (self.structure_keys_for(tree)[node], kind)
        found, value = self._lookup(key, kind)
        if found:
            return value
        value = compute()
        self._insert(key, value)
        if self.backend is not None:
            self.backend.store(key[0], kind, value)
        return value

    def invalidate(
        self,
        tree: FaultTree,
        *,
        include_subtrees: bool = True,
        include_backend: bool = True,
    ) -> int:
        """Drop every artifact cached for ``tree``; returns the number removed.

        Removes whole-tree artifacts keyed by the tree's *current* structural
        hash and, unless ``include_subtrees=False``, the subtree artifacts of
        every node currently in the tree (``include_subtrees=False`` is the
        sweep executor's per-scenario eviction: the scenario's whole-tree
        entries are dead after its analysis, but the subtree entries are the
        shared incremental state every later scenario reuses).  With a
        persistent backend, invalidation reaches the disk tier too unless
        ``include_backend=False`` — a memory-only drop would otherwise be
        undone by the next probe re-fetching the stale entry from disk.
        Entries stored under a hash the tree had *before* an in-place
        mutation are unreachable from here (the key changed with the tree);
        they are never served stale, but reclaiming their memory requires
        :meth:`clear`.
        """
        keys = {self.key_for(tree)}
        if include_subtrees:
            keys.update(self.structure_keys_for(tree).values())
        stale = [key for key in self._store if key[0] in keys]
        for key in stale:
            del self._store[key]
        if include_backend and self.backend is not None:
            # Duck-typed: backends without deletion support may omit discard.
            discard = getattr(self.backend, "discard", None)
            if discard is not None:
                for key_hash in keys:
                    discard(key_hash)
        return len(stale)

    def clear(self) -> None:
        """Drop all in-memory artifacts and reset the counters.

        The persistent backend (if any) is left untouched — clearing the
        memory tier of one process must not destroy artifacts other
        processes share.
        """
        self._store.clear()
        self._hits.clear()
        self._misses.clear()
        self._evictions.clear()
        self._store_hits.clear()
        self._store_misses.clear()

    # -- statistics -----------------------------------------------------------------

    @property
    def hits(self) -> int:
        return sum(self._hits.values())

    @property
    def misses(self) -> int:
        return sum(self._misses.values())

    @property
    def evictions(self) -> int:
        return sum(self._evictions.values())

    @property
    def store_hits(self) -> int:
        """Artifacts served by the persistent backend instead of recomputed."""
        return sum(self._store_hits.values())

    @property
    def store_misses(self) -> int:
        return sum(self._store_misses.values())

    def hits_for(self, kind: str) -> int:
        return self._hits.get(kind, 0)

    def misses_for(self, kind: str) -> int:
        return self._misses.get(kind, 0)

    def store_hits_for(self, kind: str) -> int:
        """Backend (second-tier) hits of one artifact kind."""
        return self._store_hits.get(kind, 0)

    def store_misses_for(self, kind: str) -> int:
        """Backend (second-tier) misses of one artifact kind."""
        return self._store_misses.get(kind, 0)

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> Dict[str, Any]:
        """Snapshot of the counters, suitable for reports and logging."""
        kinds = sorted(
            set(self._hits)
            | set(self._misses)
            | set(self._evictions)
            | set(self._store_hits)
            | set(self._store_misses)
        )
        stats: Dict[str, Any] = {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "by_kind": {
                kind: {
                    "hits": self._hits.get(kind, 0),
                    "misses": self._misses.get(kind, 0),
                    "evictions": self._evictions.get(kind, 0),
                }
                for kind in kinds
            },
        }
        if self.backend is not None:
            stats["store_hits"] = self.store_hits
            stats["store_misses"] = self.store_misses
            # Per-kind backend counters appear only for store-backed caches so
            # the memory-only stats shape stays unchanged.  They let sweep
            # logs attribute cross-process reuse to cut sets vs BDDs instead
            # of one aggregate number.
            for kind, counters in stats["by_kind"].items():
                counters["store_hits"] = self._store_hits.get(kind, 0)
                counters["store_misses"] = self._store_misses.get(kind, 0)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactCache(entries={len(self._store)}, hits={self.hits}, misses={self.misses})"
