"""Quantitative queries over BDDs: exact top-event probability and MPMCS.

Two complementary algorithms, both linear in the number of BDD nodes:

* :func:`top_event_probability` — exact probability of the top event by
  Shannon expansion (``P(node) = p(x) * P(high) + (1 - p(x)) * P(low)``),
  independent basic events assumed.  This is the textbook BDD-based
  quantitative FTA the paper's survey references describe.
* :func:`bdd_mpmcs` — the Maximum Probability Minimal Cut Set computed
  directly on the BDD with dynamic programming: for every node, the
  cheapest way to reach the ``1`` terminal either avoids the node's variable
  (low branch, cost 0) or includes it (high branch, the variable's positive
  integer ``-log`` objective weight).  Because the structure function is
  monotone and every weight is positive, the optimal set of included
  variables is an inclusion-minimal cut set — the MPMCS.  This is the
  BDD-based baseline of benchmark E6 and the comparison the paper lists as
  future work.

Both queries are also available on an already-compiled function
(:func:`probability_of_bdd`, :func:`mpmcs_of_bdd`) so callers holding a cached
BDD — e.g. the :mod:`repro.api` artifact cache — can avoid recompiling the
tree for every query.

Tie-breaking
------------
The MPMCS dynamic programme minimises the MaxSAT pipeline's integer
objective (:func:`~repro.maxsat.instance.objective_weight`): the rounded
``-log`` weights, then the smallest cut set, then the lexicographically
smallest sorted event tuple.  This is the ordering of
:meth:`repro.analysis.cutsets.CutSetCollection.ranked`, so the BDD backend,
MOCUS, brute force and the MaxSAT pipeline all return the identical MPMCS on
ties and near-ties — cross-backend equality checks stay reproducible.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bdd.manager import BDD, BDDManager, FALSE_NODE, TRUE_NODE
from repro.bdd.ordering import variable_order
from repro.core.weights import log_weight
from repro.exceptions import AnalysisError
from repro.fta.tree import FaultTree
from repro.maxsat.instance import DEFAULT_PRECISION, objective_weight

__all__ = [
    "FLAT_FORM_CACHE_LIMIT",
    "FlatBDD",
    "FlatFormCache",
    "bdd_mpmcs",
    "flatten_bdd",
    "mpmcs_of_bdd",
    "probability_of_bdd",
    "top_event_probability",
]

#: Default bound on memoised :class:`FlatBDD` forms per BDD manager.  Flat
#: forms are proportional in size to their diagram, and long-lived monitors /
#: services compile many transient functions through one manager — an
#: unbounded memo is a slow leak there.  256 diagrams is far beyond any
#: working set a sweep or monitor batch touches.
FLAT_FORM_CACHE_LIMIT = 256


class FlatFormCache:
    """LRU memo of :class:`FlatBDD` forms, keyed by hash-consed root node.

    Lives on the owning :class:`~repro.bdd.manager.BDDManager` (created on
    first :func:`flatten_bdd` call).  Reports its effectiveness the same way
    :meth:`repro.api.cache.ArtifactCache.stats` does: cumulative ``hits`` /
    ``misses`` / ``evictions`` next to the current ``entries``/``limit``.
    """

    __slots__ = ("limit", "hits", "misses", "evictions", "_entries")

    def __init__(self, limit: int = FLAT_FORM_CACHE_LIMIT) -> None:
        if limit < 1:
            raise AnalysisError(f"flat-form cache limit must be at least 1, got {limit}")
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[int, FlatBDD]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, node: int) -> Optional[FlatBDD]:
        flat = self._entries.get(node)
        if flat is None:
            self.misses += 1
            return None
        self._entries.move_to_end(node)
        self.hits += 1
        return flat

    def put(self, node: int, flat: FlatBDD) -> None:
        self._entries[node] = flat
        self._entries.move_to_end(node)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Cumulative counters plus current occupancy (ArtifactCache-style)."""
        return {
            "entries": len(self._entries),
            "limit": self.limit,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class FlatBDD:
    """A compiled BDD function as flat topologically-ordered node arrays.

    Node ids are remapped to a compact range: ``0`` is the FALSE terminal,
    ``1`` the TRUE terminal, and internal nodes occupy ``2 .. 1 + n`` in
    children-first (topological) order, the root last.  A single forward pass
    over the internal nodes therefore evaluates the function — this is the
    form the :mod:`repro.kernels` batch evaluators consume, and what the
    recursive :func:`probability_of_bdd` walk is rewritten on top of.

    ``events`` lists the distinct variable names the function mentions;
    ``var_index[i]``, ``low[i]`` and ``high[i]`` describe internal node
    ``2 + i``: its variable (an index into ``events``) and its two children
    (compact node ids).
    """

    events: Tuple[str, ...]
    var_index: array  # signed 64-bit ints, one per internal node
    low: array
    high: array
    root: int  # compact id of the function's root node

    @property
    def num_nodes(self) -> int:
        """Total node count including the two terminals."""
        return 2 + len(self.var_index)

    def probability_rows(
        self, probability_maps: Sequence[Mapping[str, float]]
    ) -> List[List[float]]:
        """Per-scenario probability rows in ``events`` order.

        Raises :class:`AnalysisError` when a scenario is missing a
        probability for one of the function's events — the same error the
        scalar walk raises.
        """
        rows: List[List[float]] = []
        for probabilities in probability_maps:
            row: List[float] = []
            for name in self.events:
                try:
                    row.append(probabilities[name])
                except KeyError as exc:
                    raise AnalysisError(
                        f"no probability known for event {name!r}"
                    ) from exc
            rows.append(row)
        return rows


def flatten_bdd(function: BDD) -> FlatBDD:
    """Export ``function`` as a :class:`FlatBDD` node-array form.

    The result is memoised on the owning :class:`BDDManager` keyed by the
    root node (BDD nodes are hash-consed and immutable, so the flat form of
    a given root never changes), making repeated batch evaluations of a
    cached function cheap.  The memo is a :class:`FlatFormCache` — an LRU
    bounded at :data:`FLAT_FORM_CACHE_LIMIT` forms — so long-lived managers
    that compile many functions do not accumulate flat forms without limit.
    """
    manager = function.manager
    cache: FlatFormCache = getattr(manager, "_flat_forms", None)  # type: ignore[assignment]
    if cache is None:
        cache = FlatFormCache()
        manager._flat_forms = cache  # type: ignore[attr-defined]
    cached = cache.get(function.node)
    if cached is not None:
        return cached

    # Children-first topological order via iterative post-order DFS.
    compact: Dict[int, int] = {FALSE_NODE: 0, TRUE_NODE: 1}
    event_index: Dict[str, int] = {}
    var_index = array("q")
    low_arr = array("q")
    high_arr = array("q")
    if function.node not in compact:
        stack: List[Tuple[int, bool]] = [(function.node, False)]
        while stack:
            node, expanded = stack.pop()
            if node in compact:
                continue
            level, low, high = manager.node_triple(node)
            if not expanded:
                stack.append((node, True))
                if high not in compact:
                    stack.append((high, False))
                if low not in compact:
                    stack.append((low, False))
                continue
            name = manager.var_at_level(level)
            index = event_index.setdefault(name, len(event_index))
            var_index.append(index)
            low_arr.append(compact[low])
            high_arr.append(compact[high])
            compact[node] = len(compact)

    flat = FlatBDD(
        events=tuple(event_index),
        var_index=var_index,
        low=low_arr,
        high=high_arr,
        root=compact[function.node],
    )
    cache.put(function.node, flat)
    return flat


def top_event_probability(
    tree: FaultTree,
    *,
    heuristic: str = "dfs",
) -> float:
    """Exact top-event probability of ``tree`` via its BDD."""
    manager = BDDManager(variable_order(tree, heuristic=heuristic))
    function = manager.from_fault_tree(tree)
    return probability_of_bdd(function, tree.probabilities())


def probability_of_bdd(function: BDD, probabilities: Mapping[str, float]) -> float:
    """Exact probability of an already-compiled BDD function.

    A single forward pass over the :func:`flatten_bdd` node arrays: children
    come before parents, so ``P(node) = p * P(high) + (1 - p) * P(low)`` can
    be evaluated iteratively (no recursion limit on deep BDDs).  The
    per-node arithmetic is identical to the batch kernels in
    :mod:`repro.kernels.bdd_eval`, keeping scalar and batched results
    bit-for-bit equal.
    """
    flat = flatten_bdd(function)
    row = flat.probability_rows((probabilities,))[0]
    values = [0.0, 1.0]
    append = values.append
    for index, lo, hi in zip(flat.var_index, flat.low, flat.high):
        p = row[index]
        append(p * values[hi] + (1.0 - p) * values[lo])
    return values[flat.root]


# A DP entry is the best cut set reachable from a node: (summed objective
# weight, probability, member events), or None when the TRUE terminal is
# unreachable.
_Best = Optional[Tuple[int, float, Tuple[str, ...]]]


def mpmcs_of_bdd(
    function: BDD, probabilities: Mapping[str, float]
) -> Tuple[Tuple[str, ...], float]:
    """MPMCS of an already-compiled BDD function.

    The dynamic programme minimises the MaxSAT objective
    (:func:`~repro.maxsat.instance.objective_weight` at
    :data:`~repro.maxsat.instance.DEFAULT_PRECISION`, events ranked by
    sorted name among ``probabilities``), summed over the events a path
    includes.  The sum is additive and no two sets share it, so the answer
    is exact in the canonical order every backend ranks by, also where two
    cut sets' float products tie or differ in the last place.  The reported
    probability is the float product of the chosen events.

    Returns ``(sorted event tuple, probability)``; raises
    :class:`AnalysisError` when the function is unsatisfiable (no cut set).
    """
    if function.is_false:
        raise AnalysisError("BDD function is constant false: the top event cannot occur")

    manager = function.manager
    ranks = {name: rank for rank, name in enumerate(sorted(probabilities))}
    best: Dict[int, _Best] = {FALSE_NODE: None, TRUE_NODE: (0, 1.0, ())}

    def visit(node: int) -> _Best:
        if node in best:
            return best[node]
        level, low, high = manager.node_triple(node)
        name = manager.var_at_level(level)
        try:
            p = probabilities[name]
        except KeyError as exc:
            raise AnalysisError(f"no probability known for event {name!r}") from exc
        value = visit(low)
        high_best = visit(high)
        if high_best is not None:
            weight = objective_weight(log_weight(p), ranks[name], len(ranks), DEFAULT_PRECISION)
            if value is None or high_best[0] + weight < value[0]:
                value = (high_best[0] + weight, high_best[1] * p, high_best[2] + (name,))
        best[node] = value
        return value

    top = visit(function.node)
    if top is None:  # pragma: no cover - is_false already caught this
        raise AnalysisError("BDD function has no path to the TRUE terminal")
    return tuple(sorted(top[2])), top[1]


def bdd_mpmcs(
    tree: FaultTree,
    *,
    heuristic: str = "dfs",
) -> Tuple[Tuple[str, ...], float]:
    """Compute the MPMCS of ``tree`` directly on its BDD.

    Returns ``(sorted event tuple, probability)``.  Raises
    :class:`AnalysisError` when the top event cannot occur at all.
    """
    manager = BDDManager(variable_order(tree, heuristic=heuristic))
    function = manager.from_fault_tree(tree)
    if function.is_false:
        raise AnalysisError(f"fault tree {tree.name!r} has no cut set: the top event cannot occur")
    return mpmcs_of_bdd(function, tree.probabilities())
