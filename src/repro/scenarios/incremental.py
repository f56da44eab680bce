"""Incremental minimal-cut-set computation over the subtree artifact cache.

Minimal cut sets compose bottom-up over monotone gates:

* ``mcs(OR(a, b))``     — union of the child cut sets, minimised;
* ``mcs(AND(a, b))``    — pairwise unions across the children, minimised;
* ``mcs(k-of-n(...))``  — AND-composition of every ``k``-subset of children,
  unioned and minimised.

Per-gate minimisation is exact for coherent trees even with shared events:
any product built from a subsumed local cut set is dominated by the same
product built from the subsuming subset.

:func:`incremental_cut_sets` exploits this compositionality for what-if
sweeps.  Every gate's cut sets are memoised in the session's
:class:`~repro.api.cache.ArtifactCache` under the gate's *structure-only*
subtree hash, so across the scenarios of a sweep only the gates whose
subtree actually changed are recomputed:

* a probability-only scenario (the common case) changes no structure hash at
  all — the full cut-set structure of every scenario is a single cache hit;
* a structural patch (added redundancy, removed event, changed voting
  threshold) dirties exactly the path from the edit to the top event, and the
  siblings of that path are reused.

The cached values are tuples of ``frozenset`` event names — purely
qualitative, as the structure-hash key requires; probabilities are attached
per scenario when the final :class:`CutSetCollection` is assembled.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Tuple

from repro.analysis.cutsets import CutSet, CutSetCollection, minimise_cut_sets
from repro.api.cache import ARTIFACT_CUT_SETS, ARTIFACT_SUBTREE_CUT_SETS, ArtifactCache
from repro.exceptions import AnalysisError
from repro.fta.gates import Gate, GateType
from repro.fta.tree import FaultTree

__all__ = ["incremental_cut_sets", "seed_session_cut_sets"]

#: Safety valve: a single gate whose composition would exceed this many
#: intermediate products aborts with a clear error instead of exhausting
#: memory (mirrors the guard philosophy of the MaxSAT totalizer encodings).
MAX_INTERMEDIATE_PRODUCTS = 2_000_000


def _and_compose(operands: List[Tuple[CutSet, ...]]) -> List[CutSet]:
    """Cross-product composition of child cut sets, minimised as it grows."""
    current: List[CutSet] = [frozenset()]
    for operand in operands:
        if len(current) * len(operand) > MAX_INTERMEDIATE_PRODUCTS:
            raise AnalysisError(
                f"cut-set composition exceeds {MAX_INTERMEDIATE_PRODUCTS} intermediate "
                "products; the tree is too entangled for explicit enumeration"
            )
        current = minimise_cut_sets(
            left | right for left in current for right in operand
        )
    return current


def _gate_cut_sets(
    gate: Gate, resolved: Dict[str, Tuple[CutSet, ...]]
) -> Tuple[CutSet, ...]:
    """Minimal cut sets of one gate from its children's already-resolved sets."""
    children = [resolved[child] for child in gate.children]
    if gate.gate_type is GateType.OR:
        merged: List[CutSet] = [cs for child in children for cs in child]
        return tuple(minimise_cut_sets(merged))
    if gate.gate_type is GateType.AND:
        return tuple(_and_compose(children))
    assert gate.k is not None  # voting; Gate validated k on construction
    union: List[CutSet] = []
    for combo in combinations(children, gate.k):
        union.extend(_and_compose(list(combo)))
        if len(union) > MAX_INTERMEDIATE_PRODUCTS:
            raise AnalysisError(
                f"voting gate {gate.name!r} expands to more than {MAX_INTERMEDIATE_PRODUCTS} "
                "intermediate products; the tree is too entangled for explicit enumeration"
            )
    return tuple(minimise_cut_sets(union))


def incremental_cut_sets(tree: FaultTree, cache: ArtifactCache) -> CutSetCollection:
    """Minimal cut sets of ``tree``, reusing cached unperturbed subtrees.

    Equivalent to :func:`repro.analysis.mocus.mocus_minimal_cut_sets` on any
    coherent tree, but every gate's result is memoised in ``cache`` under the
    gate's structure-only subtree hash (kind
    :data:`~repro.api.cache.ARTIFACT_SUBTREE_CUT_SETS`), so repeated calls
    across the scenarios of a sweep recompute only the gates whose subtree
    structure changed.  Cache hit/miss counters under that kind quantify the
    reuse.
    """
    tree.validate()
    gates = tree.gates
    resolved: Dict[str, Tuple[CutSet, ...]] = {}
    for name in tree.topological_order():
        gate = gates.get(name)
        if gate is None:
            resolved[name] = (frozenset((name,)),)
        else:
            resolved[name] = cache.get_or_compute_subtree(
                tree,
                name,
                ARTIFACT_SUBTREE_CUT_SETS,
                lambda g=gate: _gate_cut_sets(g, resolved),
            )
    return CutSetCollection.from_minimal(
        resolved[tree.top_event], probabilities=tree.probabilities()
    )


def seed_session_cut_sets(tree: FaultTree, cache: ArtifactCache) -> CutSetCollection:
    """Compute cut sets incrementally and seed them as the whole-tree artifact.

    After seeding, a backend that reads
    :data:`~repro.api.cache.ARTIFACT_CUT_SETS` on this tree — ``mocus`` and
    ``brute-force`` for every cut-set analysis, ``bdd`` for ``mcs`` and
    ``ranking`` (each backend's ``CUT_SET_ANALYSES``) — hits the
    incrementally assembled collection instead of enumerating from scratch.
    This is the bridge that lets the sweep executor layer on the ordinary
    :class:`~repro.api.session.AnalysisSession` without modifying backends;
    the executor calls it only when such a backend will run.  ``maxsat`` and
    ``monte-carlo`` never read the artifact.
    """
    collection = incremental_cut_sets(tree, cache)
    cache.put(tree, ARTIFACT_CUT_SETS, collection)
    return collection
