"""MOCUS — the classical top-down minimal cut set algorithm.

MOCUS (Method of Obtaining CUt Sets, Fussell & Vesely 1972) expands the top
event downwards: an AND gate replaces itself by *all* of its children inside a
candidate set, an OR gate *splits* the candidate into one copy per child, and
a k-of-n voting gate splits into one copy per k-subset of children.  When only
basic events remain, subsumption removes non-minimal candidates.

MOCUS is the baseline most FTA tools historically used for qualitative
analysis; the benchmark E6 compares it against the MaxSAT pipeline (which
avoids enumerating all cut sets when only the most probable one is needed).
The worst-case number of intermediate candidates is exponential, so
:func:`mocus_minimal_cut_sets` takes a safety limit.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.analysis.cutsets import CutSetCollection, minimise_cut_sets
from repro.exceptions import AnalysisError
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree

__all__ = ["mocus_minimal_cut_sets", "mocus_mpmcs"]

#: Default cap on the number of intermediate candidate sets.
DEFAULT_MAX_CANDIDATES = 200_000


def mocus_minimal_cut_sets(
    tree: FaultTree,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> CutSetCollection:
    """Compute all minimal cut sets of ``tree`` with the MOCUS algorithm.

    Parameters
    ----------
    tree:
        The fault tree to analyse (validated first).
    max_candidates:
        Abort with :class:`AnalysisError` when the number of intermediate
        candidate sets exceeds this bound — MOCUS enumerates *all* cut sets,
        which is exponential for some structures (this very blow-up motivates
        the paper's direct MaxSAT optimisation).  The bound is checked at
        every insertion, so a k-of-n gate's ``C(n, k)`` expansions never
        outgrow it.
    """
    tree.validate()

    # Each candidate is a frozenset of node names still to be resolved.
    candidates: Set[FrozenSet[str]] = {frozenset({tree.top_event})}
    finished: Set[FrozenSet[str]] = set()

    def add(candidate: FrozenSet[str]) -> None:
        candidates.add(candidate)
        if len(candidates) + len(finished) > max_candidates:
            raise AnalysisError(
                f"MOCUS exceeded the candidate limit of {max_candidates} sets on "
                f"fault tree {tree.name!r}"
            )

    while candidates:
        candidate = candidates.pop()
        gate_name = _first_gate(tree, candidate)
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

    minimal = minimise_cut_sets(finished)
    return CutSetCollection(cut_sets=minimal, probabilities=tree.probabilities())


def mocus_mpmcs(
    tree: FaultTree,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> Tuple[Tuple[str, ...], float]:
    """MPMCS obtained the classical way: enumerate all MCSs, then rank them.

    This is the baseline strategy the paper's MaxSAT formulation replaces —
    useful both for validation and for the E6 comparison benchmark.
    """
    collection = mocus_minimal_cut_sets(tree, max_candidates=max_candidates)
    if not len(collection):
        raise AnalysisError(f"fault tree {tree.name!r} has no cut set")
    cut_set, probability = collection.most_probable()
    return tuple(sorted(cut_set)), probability


def _first_gate(tree: FaultTree, candidate: FrozenSet[str]) -> Optional[str]:
    """Return a gate name contained in ``candidate`` (or None if only events)."""
    for name in candidate:
        if tree.is_gate(name):
            return name
    return None
