"""Top-k enumeration of minimal cut sets by decreasing probability.

The paper computes the single Maximum Probability Minimal Cut Set; a natural
extension (useful for risk ranking and implemented by several FTA tools) is to
enumerate the k most probable minimal cut sets, here with
:meth:`MPMCSSolver.rank <repro.core.pipeline.MPMCSSolver.rank>`.  The
default solver ranks with the module walk that finds one MPMCS
(:class:`~repro.core.pipeline.ModuleOptima`), each module keeping its ``k``
cheapest cut sets: modules whose children are independent join their
children's ranked cut sets without a solve, and a module skeleton that
needs a search enumerates its own cut sets, cheapest first, by at most
``k`` blocked solves of that skeleton (Lawler's partition).  A blocked solve adds the hard clause ``(¬x_1 ∨ ... ∨ ¬x_m)``
over the members of the last solution ``S``: the clause forbids ``S`` and
every superset of it, so each subsequent optimum is again an
inclusion-minimal cut set — the next cheapest one.  A solver with a
``single_engine`` blocks whole-tree solves instead (:func:`rank_optima`).
The MaxSAT objective is the canonical order itself (see
:func:`~repro.maxsat.instance.objective_weight`), so every optimum is unique
and ties cost no extra solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.pipeline import MPMCSSolver, rank_optima
from repro.exceptions import AnalysisError
from repro.fta.tree import FaultTree

__all__ = ["RankedCutSet", "enumerate_mpmcs", "rank_optima"]


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


def enumerate_mpmcs(
    tree: FaultTree,
    k: int,
    *,
    solver: Optional[MPMCSSolver] = None,
) -> List[RankedCutSet]:
    """Return up to ``k`` minimal cut sets in decreasing probability order.

    Ties are broken canonically (smaller set, then lexicographic events),
    also at the ``k``-th rank, so the ranking equals every other backend's.
    Computed by :meth:`MPMCSSolver.rank`: module by module, without a solve
    when every module of ``tree`` solves by rule and with at most ``k``
    blocked solves of each skeleton that needs a search; with a
    ``single_engine``, the MPMCS and ``k - 1`` blocked solves of one
    whole-tree encoding (:meth:`MPMCSSolver.optima`).

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
        for rank, result in enumerate(pipeline.rank(tree, k), start=1)
    ]
