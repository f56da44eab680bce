"""Probability-truncated minimal cut set enumeration.

Industrial PRA models have far too many minimal cut sets to enumerate, so
tools enumerate only those above a probability *cutoff* and bound the error of
everything discarded.  The enumeration below is a MOCUS-style top-down
expansion with safe pruning: since every probability is at most 1, the product
of the basic events already present in a candidate is an upper bound on the
probability of every cut set the candidate can still produce, so candidates
below the cutoff can be discarded without losing any retained cut set.

The MPMCS itself is never truncated as long as the cutoff is below its
probability — which gives a cheap cross-check of the MaxSAT pipeline on trees
whose full cut-set enumeration would blow up.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.cutsets import CutSetCollection, minimise_cut_sets
from repro.analysis.topevent import top_event_probability_from_cut_sets
from repro.exceptions import AnalysisError
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree

__all__ = ["TruncationResult", "truncated_cut_sets", "truncated_top_event_probability"]

#: Default cap on simultaneously live candidates (safety valve, like MOCUS).
DEFAULT_MAX_CANDIDATES = 500_000


@dataclass
class TruncationResult:
    """Outcome of a truncated cut-set enumeration.

    Attributes
    ----------
    collection:
        The retained minimal cut sets (all with probability at or above the
        cutoff), with probabilities attached.
    cutoff:
        The probability cutoff used.
    num_retained:
        Number of retained minimal cut sets.
    num_pruned:
        Number of candidate sets discarded by the cutoff during the expansion
        (an indicator of how much work the truncation saved, *not* a count of
        discarded minimal cut sets).
    """

    collection: CutSetCollection
    cutoff: float
    num_retained: int
    num_pruned: int

    def most_probable(self) -> Tuple[Tuple[str, ...], float]:
        """The MPMCS among the retained cut sets."""
        cut_set, probability = self.collection.most_probable()
        return tuple(sorted(cut_set)), probability


def truncated_cut_sets(
    tree: FaultTree,
    cutoff: float,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> TruncationResult:
    """Enumerate every minimal cut set whose probability is at least ``cutoff``.

    Parameters
    ----------
    tree:
        The fault tree to analyse (validated first).
    cutoff:
        Probability cutoff in ``(0, 1]``.  Cut sets strictly below it are
        discarded (and so are, safely, all candidates that can only lead to
        such cut sets).
    max_candidates:
        Abort with :class:`AnalysisError` when the number of live candidates
        exceeds this bound, checked at every insertion.
    """
    if not 0.0 < cutoff <= 1.0:
        raise AnalysisError(f"cutoff must lie in (0, 1], got {cutoff}")
    tree.validate()
    probabilities = tree.probabilities()

    def bound(candidate: FrozenSet[str]) -> float:
        product = 1.0
        for name in candidate:
            if tree.is_event(name):
                product *= probabilities[name]
        return product

    candidates: Set[FrozenSet[str]] = {frozenset({tree.top_event})}
    finished: Set[FrozenSet[str]] = set()
    num_pruned = 0

    def add(candidate: FrozenSet[str]) -> None:
        candidates.add(candidate)
        if len(candidates) + len(finished) > max_candidates:
            raise AnalysisError(
                f"truncated enumeration exceeded the candidate limit of {max_candidates} "
                f"sets on fault tree {tree.name!r}"
            )

    while candidates:
        candidate = candidates.pop()
        if bound(candidate) < cutoff:
            num_pruned += 1
            continue
        gate_name = next((name for name in candidate if tree.is_gate(name)), None)
        if gate_name is None:
            finished.add(candidate)
            continue
        remainder = candidate - {gate_name}
        gate = tree.gates[gate_name]
        if gate.gate_type is GateType.AND:
            add(remainder | set(gate.children))
        elif gate.gate_type is GateType.OR:
            for child in gate.children:
                add(remainder | {child})
        elif gate.gate_type is GateType.VOTING:
            for combo in combinations(gate.children, gate.k or 1):
                add(remainder | set(combo))
        else:  # pragma: no cover - defensive
            raise AnalysisError(f"unsupported gate type {gate.gate_type!r}")

    retained = [
        cut_set
        for cut_set in minimise_cut_sets(finished)
        if bound(cut_set) >= cutoff
    ]
    collection = CutSetCollection(cut_sets=retained, probabilities=probabilities)
    return TruncationResult(
        collection=collection,
        cutoff=cutoff,
        num_retained=len(collection),
        num_pruned=num_pruned,
    )


def truncated_top_event_probability(
    tree: FaultTree,
    cutoff: float,
    *,
    method: str = "min-cut-upper-bound",
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> Dict[str, object]:
    """Top-event probability computed from the truncated cut-set list.

    Returns a dictionary with the retained-set probability, the cutoff, and
    the counts from the truncation — the standard way PRA tools report
    truncated results.  The value is a *lower* bound of the same combination
    method applied to the full cut-set list, since truncation only removes
    positive contributions.
    """
    result = truncated_cut_sets(tree, cutoff, max_candidates=max_candidates)
    if result.num_retained == 0:
        probability = 0.0
    else:
        probability = top_event_probability_from_cut_sets(
            list(result.collection), tree.probabilities(), method=method
        )
    return {
        "tree": tree.name,
        "cutoff": cutoff,
        "method": method,
        "probability": probability,
        "num_retained": result.num_retained,
        "num_pruned": result.num_pruned,
    }
