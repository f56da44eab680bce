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
tree for every query.  Each is one forward pass over the function's
:class:`FlatBDD` arrays, built once and memoised on the handle, so no query
recurses however deep the diagram.

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
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bdd.manager import BDD, BDDManager, FALSE_NODE, TRUE_NODE
from repro.bdd.ordering import variable_order
from repro.core.weights import log_weight, probability_of_cut_set
from repro.exceptions import AnalysisError
from repro.fta.tree import FaultTree
from repro.kernels.bdd_eval import eval_bdd_batch_python
from repro.maxsat.instance import DEFAULT_PRECISION, objective_weight

__all__ = [
    "FlatBDD",
    "bdd_mpmcs",
    "flatten_bdd",
    "mpmcs_of_bdd",
    "probability_of_bdd",
    "top_event_probability",
]


@dataclass(frozen=True)
class FlatBDD:
    """A compiled BDD function as flat topologically-ordered node arrays.

    Node ids are remapped to a compact range: ``0`` is the FALSE terminal,
    ``1`` the TRUE terminal, and internal nodes occupy ``2 .. 1 + n`` in
    children-first (topological) order, the root last.  A single forward pass
    over the internal nodes therefore answers every query: the
    :mod:`repro.kernels` evaluators, :func:`probability_of_bdd`,
    :func:`mpmcs_of_bdd` and :func:`~repro.bdd.cutsets.cut_sets_of_bdd` all
    read this form, so none of them recurses.

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
        probability for one of the function's events.
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

    The result is memoised on the handle (BDD nodes are hash-consed and
    immutable, so the flat form of a handle never changes); the artifact
    cache keeps one handle per structure, so every query on every
    probability-only copy of a tree reuses one flat form.
    """
    # A handle unpickled from an entry written before handles carried the
    # memo has no ``_flat`` slot set.
    flat = getattr(function, "_flat", None)
    if flat is not None:
        return flat

    manager = function.manager
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

    flat = function._flat = FlatBDD(
        events=tuple(event_index),
        var_index=var_index,
        low=low_arr,
        high=high_arr,
        root=compact[function.node],
    )
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

    One row of the reference kernel
    (:func:`~repro.kernels.bdd_eval.eval_bdd_batch_python`) over the
    :func:`flatten_bdd` arrays, so a scalar query returns the same double as
    any batched tier.
    """
    flat = flatten_bdd(function)
    return eval_bdd_batch_python(flat, flat.probability_rows((probabilities,)))[0]


def mpmcs_of_bdd(
    function: BDD, probabilities: Mapping[str, float]
) -> Tuple[Tuple[str, ...], float]:
    """MPMCS of an already-compiled BDD function.

    One forward pass over the :func:`flatten_bdd` arrays finds, for every
    node, the cheapest path to the TRUE terminal under the MaxSAT objective
    (:func:`~repro.maxsat.instance.objective_weight` at
    :data:`~repro.maxsat.instance.DEFAULT_PRECISION`, events ranked by
    sorted name among ``probabilities``), summed over the events a path
    includes, and records whether that path takes the node's high branch.
    The sum is additive and no two sets share it, so the answer is exact in
    the canonical order every backend ranks by, also where two cut sets'
    float products tie or differ in the last place.  Walking the recorded
    choices from the root gives the set; its probability is
    :func:`~repro.core.weights.probability_of_cut_set`, the product every
    other backend reports.

    Returns ``(sorted event tuple, probability)``; raises
    :class:`AnalysisError` when the function is unsatisfiable (no cut set).
    """
    if function.is_false:
        raise AnalysisError("BDD function is constant false: the top event cannot occur")

    flat = flatten_bdd(function)
    (row,) = flat.probability_rows((probabilities,))
    ranks = {name: rank for rank, name in enumerate(sorted(probabilities))}
    weights = [
        objective_weight(log_weight(p), ranks[name], len(ranks), DEFAULT_PRECISION)
        for name, p in zip(flat.events, row)
    ]
    # cost[n]: the least summed weight from node n to TRUE (None: no path);
    # took_high[i]: whether that path leaves internal node 2 + i by its high
    # branch (on equal costs the low branch wins).
    cost: List[Optional[int]] = [None, 0]
    took_high: List[bool] = []
    for index, lo, hi in zip(flat.var_index, flat.low, flat.high):
        low_cost, high_cost = cost[lo], cost[hi]
        if high_cost is not None:
            high_cost += weights[index]
        take = high_cost is not None and (low_cost is None or high_cost < low_cost)
        took_high.append(take)
        cost.append(high_cost if take else low_cost)

    events: List[str] = []
    node = flat.root
    while node != TRUE_NODE:
        position = node - 2
        if took_high[position]:
            events.append(flat.events[flat.var_index[position]])
            node = flat.high[position]
        else:
            node = flat.low[position]
    cut_set = tuple(sorted(events))
    return cut_set, probability_of_cut_set(cut_set, probabilities)


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
