"""Top-k enumeration of minimal cut sets by decreasing probability.

The paper computes the single Maximum Probability Minimal Cut Set; a natural
extension (useful for risk ranking and implemented by several FTA tools) is to
enumerate the k most probable minimal cut sets.  We obtain them by repeatedly
solving the MPMCS MaxSAT instance and *blocking* each solution ``S`` with the
hard clause ``(¬x_1 ∨ ... ∨ ¬x_m)`` over the members of ``S``: the clause
forbids ``S`` and every superset of it, so each subsequent optimum is again an
inclusion-minimal cut set — the next most probable one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.encoder import encode_mpmcs
from repro.core.pipeline import MPMCSResult, MPMCSSolver
from repro.exceptions import AnalysisError
from repro.fta.tree import FaultTree
from repro.maxsat.instance import DEFAULT_PRECISION

__all__ = ["RankedCutSet", "enumerate_mpmcs"]


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
    precision: int = DEFAULT_PRECISION,
) -> List[RankedCutSet]:
    """Return up to ``k`` minimal cut sets in decreasing probability order.

    Parameters
    ----------
    tree:
        The fault tree to analyse.
    k:
        Maximum number of cut sets to return.  Fewer are returned when the
        tree has fewer than ``k`` minimal cut sets.
    solver:
        Optional pre-configured :class:`MPMCSSolver`; a default one is built
        otherwise.  Verification stays enabled regardless, since the blocking
        construction relies on each returned set being a minimal cut set.
    precision:
        Weight scaling precision for the underlying MaxSAT instances.
    """
    if k <= 0:
        raise AnalysisError(f"k must be a positive integer, got {k}")
    pipeline = solver if solver is not None else MPMCSSolver(precision=precision)

    results: List[RankedCutSet] = []
    # One encoding for every rank: each rank adds only its own blocking clause.
    encoding = encode_mpmcs(tree, precision=precision)

    for rank in range(1, k + 1):
        try:
            result: MPMCSResult = pipeline.solve_encoding(tree, encoding)
        except AnalysisError as exc:
            if "no cut set" in str(exc):
                break  # all minimal cut sets enumerated
            raise
        results.append(
            RankedCutSet(
                rank=rank,
                events=result.events,
                probability=result.probability,
                cost=result.cost,
            )
        )
        encoding.instance.add_hard([-encoding.event_vars[name] for name in result.events])

    return results
