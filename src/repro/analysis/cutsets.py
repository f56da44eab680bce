"""Cut-set algebra.

A *cut set* is a set of basic events whose joint occurrence triggers the top
event; a *minimal cut set* (MCS) contains no proper subset that is itself a
cut set.  This module provides the set-algebra helpers shared by MOCUS, the
BDD extraction and the brute-force enumerators: subsumption-based
minimisation, containment queries, probability ranking, and a small container
class used across analyses and reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.weights import log_weight, probability_of_cut_set
from repro.exceptions import AnalysisError
from repro.maxsat.instance import DEFAULT_PRECISION, scale_weight

__all__ = ["CutSet", "CutSetCollection", "minimise_cut_sets", "is_subsumed"]

CutSet = FrozenSet[str]


def minimise_cut_sets(cut_sets: Iterable[Iterable[str]]) -> List[CutSet]:
    """Remove every cut set that is a superset of another (subsumption).

    The result contains only inclusion-minimal sets, sorted by size then
    lexicographically for determinism.  Duplicates are removed.
    """
    unique: List[CutSet] = sorted(
        {frozenset(cs) for cs in cut_sets}, key=lambda cs: (len(cs), sorted(cs))
    )
    minimal: List[CutSet] = []
    for candidate in unique:
        if not any(kept <= candidate for kept in minimal):
            minimal.append(candidate)
    return minimal


def is_subsumed(candidate: Iterable[str], cut_sets: Iterable[Iterable[str]]) -> bool:
    """True when ``candidate`` is a superset of (or equal to) some set in ``cut_sets``."""
    candidate_set = frozenset(candidate)
    return any(frozenset(cs) <= candidate_set for cs in cut_sets)


@dataclass
class CutSetCollection:
    """A collection of minimal cut sets with probability-aware helpers.

    Parameters
    ----------
    cut_sets:
        The minimal cut sets (they are re-minimised defensively on
        construction so the invariants always hold).
    probabilities:
        Optional mapping of event probabilities enabling the quantitative
        queries (:meth:`ranked`, :meth:`most_probable`, :meth:`probability_of`).
    """

    cut_sets: List[CutSet] = field(default_factory=list)
    probabilities: Optional[Mapping[str, float]] = None

    def __post_init__(self) -> None:
        self.cut_sets = minimise_cut_sets(self.cut_sets)

    @classmethod
    def from_minimal(
        cls,
        cut_sets: Sequence[CutSet],
        probabilities: Optional[Mapping[str, float]] = None,
    ) -> "CutSetCollection":
        """Wrap cut sets that are *already* inclusion-minimal, skipping re-minimisation.

        The defensive subsumption pass in ``__post_init__`` is quadratic in
        the number of cut sets; producers that guarantee minimality by
        construction (e.g. the incremental per-gate composition in
        :mod:`repro.scenarios.incremental`, whose every step ends in
        :func:`minimise_cut_sets`) use this constructor to avoid paying it
        again on every scenario of a sweep.  The canonical size-then-lexical
        order is restored cheaply.
        """
        collection = cls.__new__(cls)
        collection.cut_sets = sorted(cut_sets, key=lambda cs: (len(cs), sorted(cs)))
        collection.probabilities = probabilities
        return collection

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.cut_sets)

    def __iter__(self) -> Iterator[CutSet]:
        return iter(self.cut_sets)

    def __contains__(self, events: Iterable[str]) -> bool:
        return frozenset(events) in set(self.cut_sets)

    # -- qualitative queries -------------------------------------------------------

    def order(self) -> int:
        """Size of the smallest cut set (the classical *order* of the tree)."""
        if not self.cut_sets:
            raise AnalysisError("empty cut-set collection has no order")
        return min(len(cs) for cs in self.cut_sets)

    def of_order(self, order: int) -> List[CutSet]:
        """All cut sets with exactly ``order`` events."""
        return [cs for cs in self.cut_sets if len(cs) == order]

    def events(self) -> FrozenSet[str]:
        """Union of all events appearing in some minimal cut set."""
        out: set[str] = set()
        for cs in self.cut_sets:
            out |= cs
        return frozenset(out)

    # -- quantitative queries -------------------------------------------------------

    def _require_probabilities(self) -> Mapping[str, float]:
        if self.probabilities is None:
            raise AnalysisError("cut-set collection was built without probabilities")
        return self.probabilities

    def probability_of(self, cut_set: Iterable[str]) -> float:
        """Joint probability of one cut set (independent events)."""
        return probability_of_cut_set(cut_set, self._require_probabilities())

    def _objective_key(self) -> Callable[[CutSet], Tuple[int, int, Tuple[str, ...]]]:
        """The ranking key of :meth:`ranked`, weighing each event once.

        The key checks each event the first time it meets it, with the
        errors :func:`~repro.core.weights.probability_of_cut_set` raises.
        """
        probabilities = self._require_probabilities()
        scaled: Dict[str, int] = {}

        def key(cut_set: CutSet) -> Tuple[int, int, Tuple[str, ...]]:
            names = tuple(sorted(cut_set))
            fresh = [name for name in names if name not in scaled]
            probability_of_cut_set(fresh, probabilities)
            for name in fresh:
                scaled[name] = scale_weight(log_weight(probabilities[name]), DEFAULT_PRECISION)
            return (sum(scaled[name] for name in names), len(names), names)

        return key

    def ranked(self, limit: Optional[int] = None) -> List[Tuple[CutSet, float]]:
        """The ``limit`` most probable cut sets (all by default), most
        probable first, each with its probability.

        The order is the MaxSAT objective's (:func:`~repro.maxsat.instance.objective_weight`):
        the sum of the events' ``scale_weight(-log p)`` at
        :data:`~repro.maxsat.instance.DEFAULT_PRECISION`, then smaller cut
        sets first, then the lexicographically smallest sorted event tuple.
        So every backend (MOCUS, BDD, brute force, MaxSAT) ranks identically,
        also where the float products of near-tied cut sets differ in the
        last place.  The probabilities reported are the float products,
        multiplied out for the returned sets only.  ``ranked(k)`` equals
        ``ranked()[:k]``: it is :func:`heapq.nsmallest` over the same key.
        """
        probabilities = self._require_probabilities()
        key = self._objective_key()
        if limit is None:
            chosen = sorted(self.cut_sets, key=key)
        else:
            chosen = heapq.nsmallest(limit, self.cut_sets, key=key)
        return [(cut_set, probability_of_cut_set(cut_set, probabilities)) for cut_set in chosen]

    def most_probable(self) -> Tuple[CutSet, float]:
        """The Maximum Probability Minimal Cut Set and its probability.

        This is the brute-force/baseline definition of the MPMCS used to
        validate the MaxSAT pipeline: ``ranked()[0]``, found by one ``min``
        over the same key, multiplying out only the winner's probability.
        """
        probabilities = self._require_probabilities()
        if not self.cut_sets:
            raise AnalysisError("empty cut-set collection has no MPMCS")
        best = min(self.cut_sets, key=self._objective_key())
        return best, probability_of_cut_set(best, probabilities)

    def to_sorted_tuples(self) -> List[Tuple[str, ...]]:
        """Deterministic plain-tuple form (for reports and tests)."""
        return [tuple(sorted(cs)) for cs in self.cut_sets]
