"""Minimal path sets and the most reliable success path.

A *minimal path set* (MPS) is the dual of a minimal cut set: an
inclusion-minimal set of basic events whose joint **non-occurrence guarantees
the top event cannot happen**.  Path sets describe what must keep working for
the system to survive, and are the qualitative output of success-tree analysis
— the very transformation Step 1 of the paper performs.

Two results are provided:

* :func:`minimal_path_sets` — all minimal path sets, obtained by running the
  MOCUS expansion on the *dual* fault tree (AND/OR swapped, k-of-n dualised to
  (n-k+1)-of-n).
* :func:`most_probable_path_set` — the path set with the highest probability
  of being failure-free, i.e. maximising ``prod(1 - p(x_i))``.  It is computed
  with the same MaxSAT machinery as the MPMCS: weights are
  ``-log(1 - p(x_i))`` and the hard constraint is the structure function of
  the dual tree, a direct application of the paper's encoding to the dual
  problem.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.analysis.cutsets import CutSetCollection
from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.core.weights import MIN_WEIGHT
from repro.exceptions import AnalysisError
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree
from repro.maxsat import MaxSATStatus, RC2Engine
from repro.maxsat.engine import MaxSATEngine

__all__ = ["dual_tree", "minimal_path_sets", "most_probable_path_set"]


def dual_tree(tree: FaultTree, *, name: Optional[str] = None) -> FaultTree:
    """Return the dual (success-oriented) fault tree.

    AND gates become OR gates and vice versa; a k-of-n voting gate becomes an
    (n-k+1)-of-n gate.  Basic events and probabilities are kept as-is — the
    dual tree's cut sets are exactly the original tree's path sets.
    """
    tree.validate()
    dual = FaultTree(name or f"{tree.name}-dual", top_event=tree.top_event)
    for event in tree.events.values():
        dual.add_event(event)
    for gate in tree.gates.values():
        if gate.gate_type is GateType.AND:
            dual.add_gate(gate.name, GateType.OR, gate.children, description=gate.description)
        elif gate.gate_type is GateType.OR:
            dual.add_gate(gate.name, GateType.AND, gate.children, description=gate.description)
        else:
            dual_k = len(gate.children) - (gate.k or 1) + 1
            dual.add_gate(
                gate.name,
                GateType.VOTING,
                gate.children,
                k=dual_k,
                description=gate.description,
            )
    dual.validate()
    return dual


def minimal_path_sets(tree: FaultTree, *, max_candidates: int = 200_000) -> CutSetCollection:
    """All minimal path sets of ``tree`` (MOCUS on the dual tree).

    The returned collection carries the *success* probabilities
    ``1 - p(x_i)`` so that its ranking helpers order path sets by the
    probability that every member stays failure-free.
    """
    dual = dual_tree(tree)
    collection = mocus_minimal_cut_sets(dual, max_candidates=max_candidates)
    survival_probabilities = {
        name: 1.0 - probability for name, probability in tree.probabilities().items()
    }
    return CutSetCollection(
        cut_sets=list(collection), probabilities=survival_probabilities
    )


def most_probable_path_set(
    tree: FaultTree,
    *,
    engine: Optional[MaxSATEngine] = None,
) -> Tuple[Tuple[str, ...], float]:
    """The minimal path set with the highest probability of being failure-free.

    Returns ``(sorted event tuple, probability)`` where the probability is
    ``prod(1 - p(x_i))`` over the members.  This is the MPMCS encoding applied
    to the dual problem: the hard clauses are the structure CNF of the
    :func:`dual_tree` (whose cut sets are this tree's path sets), built by the
    same iterative gate-by-gate assembler as the MPMCS, so depth is unbounded;
    each event carries the weight ``-log(1 - p(x_i))``.
    """
    # Variable y_i of the dual tree's CNF means "event i stays failure-free".
    structure = dual_tree(tree).compiled().cnf
    instance = structure.instance.copy()

    probabilities = tree.probabilities()
    event_vars = {name: structure.event_vars[name] for name in tree.events_reachable_from_top()}
    for name, var in event_vars.items():
        survival = 1.0 - probabilities[name]
        if survival <= 0.0:
            # A probability-1 event can never be part of a surviving path set;
            # forbid selecting it instead of giving it an infinite weight.
            instance.add_hard([-var])
        else:
            instance.add_soft([-var], max(-math.log(survival), MIN_WEIGHT), label=name)

    solver = engine if engine is not None else RC2Engine()
    result = solver.solve(instance)
    if result.status is MaxSATStatus.UNSATISFIABLE:
        raise AnalysisError(
            f"fault tree {tree.name!r} has no path set: the top event always occurs"
        )
    if result.status is not MaxSATStatus.OPTIMUM or result.model is None:
        raise AnalysisError("MaxSAT resolution of the path-set problem was inconclusive")

    members = tuple(
        sorted(name for name, var in event_vars.items() if result.model.get(var, False))
    )
    probability = 1.0
    for name in members:
        probability *= 1.0 - probabilities[name]
    return members, probability
