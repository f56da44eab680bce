"""Single points of failure (SPOF) detection.

A single point of failure is a basic event that triggers the top event on its
own, i.e. a minimal cut set of size one.  The paper lists SPOF identification
among the standard qualitative FTA techniques; it falls out directly from the
structure function, so no cut-set enumeration is needed.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.fta.tree import FaultTree

__all__ = ["single_points_of_failure"]


def single_points_of_failure(tree: FaultTree) -> List[Tuple[str, float]]:
    """Return the single points of failure with their probabilities.

    The result is sorted by decreasing probability (most likely SPOF first) —
    the size-one analogue of the MPMCS ranking.  One bit-parallel pass over
    the compiled structure answers every event: lane i holds {eᵢ} alone.
    """
    structure = tree.compiled()
    names = tree.events_reachable_from_top()
    failed = structure.evaluate_lanes({name: 1 << lane for lane, name in enumerate(names)})
    spofs = [
        (name, tree.probability(name)) for lane, name in enumerate(names) if failed >> lane & 1
    ]
    return sorted(spofs, key=lambda item: (-item[1], item[0]))
