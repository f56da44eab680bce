"""Top-event probability computation.

Quantitative FTA asks for the probability that the top event occurs given the
basic-event probabilities.  Three classical estimators are implemented, all
operating on a set of minimal cut sets (from MOCUS, the BDD engine or brute
force):

* :func:`exact_top_event_probability` — inclusion–exclusion over the cut sets
  (exact, exponential in the number of cut sets; a limit guards against
  blow-up);
* :func:`rare_event_approximation` — the first-order upper bound
  ``sum of cut-set probabilities``;
* :func:`birnbaum_bound` (min-cut upper bound) — ``1 - prod(1 - P(MCS_i))``,
  exact when cut sets are disjoint and an upper bound otherwise.

For an exact answer on large models prefer the BDD engine
(:func:`repro.bdd.probability.top_event_probability`), which is exact without
enumerating cut sets at all.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro.core.weights import probability_of_cut_set
from repro.exceptions import AnalysisError

__all__ = [
    "exact_top_event_probability",
    "rare_event_approximation",
    "birnbaum_bound",
    "cut_set_bounds",
    "top_event_probability_from_cut_sets",
]


def _normalise(cut_sets: Iterable[Iterable[str]]) -> List[FrozenSet[str]]:
    normalised = [frozenset(cs) for cs in cut_sets]
    if not normalised:
        raise AnalysisError("cannot compute a top-event probability from zero cut sets")
    return normalised


def exact_top_event_probability(
    cut_sets: Iterable[Iterable[str]],
    probabilities: Mapping[str, float],
    *,
    max_cut_sets: int = 20,
) -> float:
    """Exact top-event probability via inclusion–exclusion over minimal cut sets.

    ``P(top) = sum_k (-1)^(k+1) * sum_{|S|=k} P(union of events in S)`` where
    ``S`` ranges over k-subsets of the cut sets and the inner probability is
    the product over the union of the events (independence assumed).
    """
    sets = _normalise(cut_sets)
    if len(sets) > max_cut_sets:
        raise AnalysisError(
            f"inclusion-exclusion over {len(sets)} cut sets needs 2^{len(sets)} terms; "
            f"limit is {max_cut_sets} (use the BDD engine for an exact result instead)"
        )
    total = 0.0
    for k in range(1, len(sets) + 1):
        sign = 1.0 if k % 2 == 1 else -1.0
        for combo in combinations(sets, k):
            union: FrozenSet[str] = frozenset().union(*combo)
            total += sign * probability_of_cut_set(union, probabilities)
    return min(max(total, 0.0), 1.0)


def rare_event_approximation(
    cut_sets: Iterable[Iterable[str]], probabilities: Mapping[str, float]
) -> float:
    """First-order (rare-event) approximation: the sum of cut-set probabilities.

    Always an upper bound; accurate when every cut-set probability is small.
    """
    return cut_set_bounds(cut_sets, probabilities)[0]


def birnbaum_bound(
    cut_sets: Iterable[Iterable[str]], probabilities: Mapping[str, float]
) -> float:
    """Min-cut upper bound ``1 - prod_i (1 - P(MCS_i))``.

    Exact when the minimal cut sets share no events; otherwise an upper bound
    that is tighter than the rare-event approximation.
    """
    return cut_set_bounds(cut_sets, probabilities)[1]


def cut_set_bounds(
    cut_sets: Iterable[Iterable[str]], probabilities: Mapping[str, float]
) -> Tuple[float, float]:
    """``(rare_event_approximation, birnbaum_bound)`` from one pass.

    Each cut set's probability is multiplied out once and both bounds are
    derived from that list.
    """
    cut_set_probabilities = [
        probability_of_cut_set(cs, probabilities) for cs in _normalise(cut_sets)
    ]
    product = 1.0
    for probability in cut_set_probabilities:
        product *= 1.0 - probability
    return sum(cut_set_probabilities), 1.0 - product


def top_event_probability_from_cut_sets(
    cut_sets: Iterable[Iterable[str]],
    probabilities: Mapping[str, float],
    *,
    method: str = "auto",
    max_exact_cut_sets: int = 20,
) -> float:
    """Top-event probability with method selection.

    ``method`` is one of ``"exact"``, ``"rare-event"``, ``"min-cut-upper-bound"``
    or ``"auto"`` (exact when the number of cut sets permits, min-cut upper
    bound otherwise).
    """
    sets = _normalise(cut_sets)
    if method == "exact":
        return exact_top_event_probability(sets, probabilities, max_cut_sets=max_exact_cut_sets)
    if method == "rare-event":
        return rare_event_approximation(sets, probabilities)
    if method == "min-cut-upper-bound":
        return birnbaum_bound(sets, probabilities)
    if method == "auto":
        if len(sets) <= max_exact_cut_sets:
            return exact_top_event_probability(
                sets, probabilities, max_cut_sets=max_exact_cut_sets
            )
        return birnbaum_bound(sets, probabilities)
    raise AnalysisError(
        f"unknown method {method!r}; expected 'exact', 'rare-event', "
        "'min-cut-upper-bound' or 'auto'"
    )
