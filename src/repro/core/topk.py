"""Top-k enumeration of minimal cut sets by decreasing probability.

The paper computes the single Maximum Probability Minimal Cut Set; a natural
extension (useful for risk ranking and implemented by several FTA tools) is to
enumerate the k most probable minimal cut sets.  We obtain them by repeatedly
solving the MPMCS MaxSAT instance and *blocking* each solution ``S`` with the
hard clause ``(¬x_1 ∨ ... ∨ ¬x_m)`` over the members of ``S``: the clause
forbids ``S`` and every superset of it, so each subsequent optimum is again an
inclusion-minimal cut set — the next most probable one.

:func:`rank_optima` is the one blocked enumeration: the cold portfolio, the
facade's warm session and :func:`enumerate_mpmcs` plug a ``solve`` into it.
It solves until an optimum is strictly costlier than the ``k``-th, so ties at
the head and at rank ``k`` are broken canonically; untied, k take k + 1 solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, TypeVar

from repro.core.encoder import encode_mpmcs
from repro.core.pipeline import MPMCSSolver
from repro.exceptions import AnalysisError
from repro.fta.tree import FaultTree
from repro.maxsat.instance import DEFAULT_PRECISION

__all__ = ["RankedCutSet", "enumerate_mpmcs", "rank_optima"]


class _HasEvents(Protocol):
    events: Tuple[str, ...]


#: An optimum of a blocked solve: any object with an ``events`` tuple.
Optimum = TypeVar("Optimum", bound=_HasEvents)
Found = Sequence[Tuple[str, ...]]


@dataclass(frozen=True)
class RankedCutSet:
    """A minimal cut set together with its probability and rank (1 = MPMCS)."""

    rank: int
    events: Tuple[str, ...]
    probability: float
    cost: float

    @property
    def size(self) -> int:
        return len(self.events)


def rank_optima(
    solve: Callable[[Found], Optional[Tuple[Optimum, int]]],
    count: int,
    *,
    deterministic: bool = True,
    ties: Optional[Callable[[int, Found], Optional[List[Optimum]]]] = None,
) -> List[Optimum]:
    """Blocked enumeration of at least ``count`` optima, in canonical order.

    ``solve(found)`` returns the cheapest optimum that is neither in
    ``found`` nor a superset of one, with its scaled (integer) cost, or
    ``None``.  The loop stops at ``count`` optima once, with
    ``deterministic``, the newest is strictly costlier than the ``count``-th,
    so every optimum tied with the ``count``-th is held.  ``ties(head_cost,
    found)`` is asked once, when the second optimum ties the head, for every
    remaining optimum of that cost (``None``: blocked solves go on).  The
    result is sorted by cost, then size, then events, like
    ``CutSetCollection.ranked()``.
    """
    held: List[Tuple[Optimum, int]] = []
    found: List[Tuple[str, ...]] = []
    while True:
        optimum = solve(found)
        if optimum is None:
            break
        held.append(optimum)
        found.append(optimum[0].events)
        cost = optimum[1]
        if len(held) >= count and (not deterministic or cost > held[count - 1][1]):
            break
        if ties is not None and len(held) == 2 and cost == held[0][1]:
            listed = ties(cost, found)
            if listed is not None:
                held.extend((tie, cost) for tie in listed)
                found.extend(tie.events for tie in listed)
                if len(held) >= count:
                    break
    held.sort(key=lambda item: (item[1], len(item[0].events), item[0].events))
    return [optimum for optimum, _ in held]


def enumerate_mpmcs(
    tree: FaultTree,
    k: int,
    *,
    solver: Optional[MPMCSSolver] = None,
    precision: int = DEFAULT_PRECISION,
) -> List[RankedCutSet]:
    """Return up to ``k`` minimal cut sets in decreasing probability order.

    Ties are broken canonically (smaller set, then lexicographic events),
    also at the ``k``-th rank, so the ranking equals every other backend's.

    Parameters
    ----------
    tree:
        The fault tree to analyse.
    k:
        Maximum number of cut sets to return.  Fewer are returned when the
        tree has fewer than ``k`` minimal cut sets.
    solver:
        Optional pre-configured :class:`MPMCSSolver`; a default one is built
        otherwise.
    precision:
        Weight scaling precision of the MaxSAT instance.
    """
    if k <= 0:
        raise AnalysisError(f"k must be a positive integer, got {k}")
    pipeline = solver if solver is not None else MPMCSSolver(precision=precision)
    encoding = encode_mpmcs(tree, precision=precision)
    return [
        RankedCutSet(
            rank=rank, events=result.events, probability=result.probability, cost=result.cost
        )
        for rank, result in enumerate(
            rank_optima(pipeline.optima(tree, encoding), k)[:k], start=1
        )
    ]
