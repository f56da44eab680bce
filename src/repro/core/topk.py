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
The MaxSAT objective is the canonical order itself (see
:func:`~repro.maxsat.instance.objective_weight`), so every optimum is unique
and each blocked solve returns the next cut set in that order: a ranking of
``k`` takes ``k`` solves and breaks ties like every other backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, TypeVar

from repro.core.pipeline import MPMCSSolver
from repro.exceptions import AnalysisError
from repro.fta.tree import FaultTree

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


def rank_optima(solve: Callable[[Found], Optional[Optimum]], count: int) -> List[Optimum]:
    """Blocked enumeration of up to ``count`` optima, in canonical order.

    ``solve(found)`` returns the canonical optimum among the cut sets that
    are neither in ``found`` nor a superset of one, or ``None``.  The loop
    solves until it holds ``count`` optima or ``solve`` finds none.
    """
    held: List[Optimum] = []
    found: List[Tuple[str, ...]] = []
    while len(held) < count:
        optimum = solve(found)
        if optimum is None:
            break
        held.append(optimum)
        found.append(optimum.events)
    return held


def enumerate_mpmcs(
    tree: FaultTree,
    k: int,
    *,
    solver: Optional[MPMCSSolver] = None,
) -> List[RankedCutSet]:
    """Return up to ``k`` minimal cut sets in decreasing probability order.

    Ties are broken canonically (smaller set, then lexicographic events),
    also at the ``k``-th rank, so the ranking equals every other backend's.
    Takes ``k`` solves: the MPMCS by :meth:`MPMCSSolver.solve`, then ``k - 1`` blocked
    solves of one whole-tree encoding (:meth:`MPMCSSolver.optima`).

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
    """
    if k <= 0:
        raise AnalysisError(f"k must be a positive integer, got {k}")
    pipeline = solver if solver is not None else MPMCSSolver()
    return [
        RankedCutSet(
            rank=rank, events=result.events, probability=result.probability, cost=result.cost
        )
        for rank, result in enumerate(
            rank_optima(pipeline.optima(tree), k), start=1
        )
    ]
