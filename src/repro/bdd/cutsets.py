"""Minimal cut set extraction from a BDD (Rauzy-style).

For a coherent (monotone) structure function, the minimal cut sets can be read
off the BDD with a bottom-up pass over its flat form: at every node
``(x, low, high)`` the cut sets are those of the low branch plus ``{x} ∪ c``
for every cut set ``c`` of the high branch that is not already covered by the
low branch.  A final subsumption pass guarantees minimality even for
non-coherent inputs.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.analysis.cutsets import CutSetCollection, minimise_cut_sets
from repro.bdd.manager import BDD, BDDManager
from repro.bdd.ordering import variable_order
from repro.bdd.probability import flatten_bdd
from repro.exceptions import AnalysisError
from repro.fta.tree import FaultTree

__all__ = ["bdd_minimal_cut_sets", "cut_sets_of_bdd"]

#: Default cap on the number of cut sets collected before aborting.
DEFAULT_MAX_CUT_SETS = 500_000


def cut_sets_of_bdd(
    function: BDD,
    *,
    max_cut_sets: int = DEFAULT_MAX_CUT_SETS,
) -> List[FrozenSet[str]]:
    """Extract the minimal cut sets of a compiled BDD function.

    One forward pass over the :func:`~repro.bdd.probability.flatten_bdd`
    arrays, children before parents, so it does not recurse.
    """
    flat = flatten_bdd(function)
    # sets[n]: the cut sets of compact node n (FALSE has none, TRUE the empty one).
    sets: List[List[FrozenSet[str]]] = [[], [frozenset()]]
    for index, lo, hi in zip(flat.var_index, flat.low, flat.high):
        name = flat.events[index]
        low_sets = sets[lo]
        result = list(low_sets)
        for cut in sets[hi]:
            candidate = cut | {name}
            if not any(existing <= candidate for existing in low_sets):
                result.append(candidate)
        if len(result) > max_cut_sets:
            raise AnalysisError(
                f"BDD cut-set extraction exceeded the limit of {max_cut_sets} sets"
            )
        sets.append(result)
    return minimise_cut_sets(sets[flat.root])


def bdd_minimal_cut_sets(
    tree: FaultTree,
    *,
    heuristic: str = "dfs",
    max_cut_sets: int = DEFAULT_MAX_CUT_SETS,
) -> CutSetCollection:
    """Compile ``tree`` to a BDD and extract its minimal cut sets."""
    manager = BDDManager(variable_order(tree, heuristic=heuristic))
    function = manager.from_fault_tree(tree)
    cut_sets = cut_sets_of_bdd(function, max_cut_sets=max_cut_sets)
    return CutSetCollection(cut_sets=cut_sets, probabilities=tree.probabilities())
