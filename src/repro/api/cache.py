"""Per-session artifact cache keyed on structure-only fault-tree hashes.

Composite requests such as ``["mpmcs", "top_event", "importance"]`` need the
same expensive intermediates several times: the minimal cut sets (importance
measures, probability bounds, MPMCS baselines) and the compiled BDD (exact
probability, BDD cut sets).  :class:`ArtifactCache` memoises them once per
structure so each is computed exactly once per
:class:`~repro.api.session.AnalysisSession`.  The MaxSAT encoding is not an
artifact: its hard clauses depend on the gates alone, so they are encoded
once per structure, not cached per tree
(:attr:`~repro.fta.compiled.CompiledStructure.cnf`), and every analysis adds
its own soft clauses.

Every entry is keyed by ``(structure hash of a node, kind)``
(:func:`subtree_structure_hashes`): a node's hash covers the gate types,
voting thresholds and event names of the subtree rooted there, and
explicitly *not* the probabilities or the tree's display name.  Every
artifact is therefore qualitative — probabilities enter only when a backend
quantifies it for one tree — and is shared by every tree of one structure:
the minimal cut sets and the BDD are keyed by the top event's hash, so one
enumeration and one compilation serve every probability of a sweep or
monitor, and an in-place :meth:`FaultTree.set_probability` cannot make an
entry stale.  The :mod:`repro.scenarios` sweep engine also stores the
minimal cut sets of every gate under that gate's hash, so a structural
patch (added redundancy, a removed event) recomputes only the gates on the
path from the edit to the top event.  The hashes live on the tree's
:class:`~repro.fta.compiled.CompiledStructure`, which every
probability-only copy shares, so no lookup serialises anything.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from repro.fta.tree import FaultTree
from repro.observability.metrics import get_metrics

__all__ = [
    "ARTIFACT_BDD",
    "ARTIFACT_CAMPAIGN_LEDGER",
    "ARTIFACT_CUT_SETS",
    "ARTIFACT_SUBTREE_CUT_SETS",
    "ArtifactCache",
    "ArtifactStoreBackend",
    "subtree_structure_hashes",
]

#: Well-known artifact kinds shared by the built-in backends.  The minimal cut
#: sets of the whole tree, a tuple of ``frozenset`` event names in canonical
#: (size, then sorted names) order, keyed by the structure hash of the top
#: event; each backend attaches a tree's probabilities when it reads them.
#: No kind holds an MPMCS encoding, and no entry is keyed by probabilities:
#: entries a persistent store may still hold under the retired kinds
#: ``"cnf-encoding"`` and ``"mpmcs-encoding"``, or under a retired whole-tree
#: hash that included the probabilities, are never read.
ARTIFACT_CUT_SETS = "minimal-cut-sets"
#: Compiled BDD keyed by the structure hash of the top event's subtree
#: (:meth:`ArtifactCache.get_or_compute`).  The diagram encodes the
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
    keys handed to a backend are the same ``(structure hash, kind)`` pairs
    the memory tier uses, so any two caches pointed at one backend exchange
    artifacts for structurally identical (sub)trees automatically, whatever
    their probabilities.
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

    Only nodes reachable from the top event are hashed.  The hashes are
    computed once per structure (:attr:`CompiledStructure.node_hashes`);
    this returns a fresh copy.
    """
    return dict(tree.compiled().node_hashes)


class ArtifactCache:
    """Memoisation table for expensive, purely qualitative analysis intermediates.

    Entries are keyed by ``(structure hash of a node, kind)``, the node
    defaulting to the top event (see the module docstring), so a value must
    not depend on probabilities.  The cache keeps hit/miss counters per kind
    so tests (and curious users) can verify that a composite request computed
    each artifact exactly once.

    Parameters
    ----------
    max_entries:
        Optional bound on the number of in-memory entries.  When set, the
        cache evicts least-recently-used entries once the bound is exceeded
        (per-kind eviction counters appear in :meth:`stats`), so a
        long-running service cannot grow the memory tier without limit.
        ``None`` (the default) keeps every entry.
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

    def get_or_compute(
        self, tree: FaultTree, kind: str, compute: Callable[[], T], *, node: Optional[str] = None
    ) -> T:
        """Return the artifact of ``kind`` for the subtree of ``tree`` at
        ``node`` (default: the top event), computing it once.

        Keyed by the node's structure hash, so the entry is shared by every
        tree (base model or perturbed scenario) containing a structurally
        identical subtree — probabilities do not participate in the key and
        the stored value must therefore be purely qualitative.
        """
        hashes = tree.compiled().node_hashes
        key = (hashes[tree.top_event if node is None else node], kind)
        found, value = self._lookup(key, kind)
        if found:
            return value
        value = compute()
        self._insert(key, value)
        if self.backend is not None:
            self.backend.store(key[0], kind, value)
        return value

    def put(self, tree: FaultTree, kind: str, value: Any) -> None:
        """Seed the entry of ``kind`` for ``tree``'s structure without counting a miss.

        Used by producers that obtained the artifact through a cheaper route
        (the incremental sweep assembling cut sets from cached subtrees) so
        later :meth:`get_or_compute` probes hit instead of recomputing.
        Seeded entries are *not* written through to the backend: their
        building blocks (the subtree artifacts) are already persisted.
        """
        self._insert((tree.compiled().node_hashes[tree.top_event], kind), value)

    def structure_keys_for(self, tree: FaultTree) -> Dict[str, str]:
        """Per-node structure-only hashes of ``tree`` (read-only).

        The dict of the tree's compiled structure, shared by every copy that
        changed only probabilities, so it is computed once per structure.
        """
        return tree.compiled().node_hashes

    def invalidate(self, tree: FaultTree) -> int:
        """Drop every artifact of every node of ``tree``; returns the number
        removed from memory.

        With a persistent backend the disk tier is dropped too — a
        memory-only drop would otherwise be undone by the next probe
        re-fetching the entry from disk.
        """
        keys = set(self.structure_keys_for(tree).values())
        stale = [key for key in self._store if key[0] in keys]
        for key in stale:
            del self._store[key]
        if self.backend is not None:
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
