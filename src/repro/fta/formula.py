"""Conversion of fault trees to Boolean formulas.

Section II of the paper represents a fault tree ``F`` as a Boolean equation
``f(t)`` expressing the ways the top event ``t`` can be satisfied; Step 1 of
the resolution method then builds the *success tree* ``X(t) = ¬f(t)`` by
complementing all events and swapping AND and OR gates.  Both operations live
here:

* :func:`structure_function` — the fault-tree structure function ``f(t)`` as a
  :class:`~repro.logic.formula.Formula` over the basic event variables;
* :func:`success_function` — its complement in negation normal form, the
  dual tree over complemented events.
"""

from __future__ import annotations

from typing import Dict

from repro.exceptions import FaultTreeError
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree
from repro.logic.formula import AtLeast, Formula, Not, Var, conjoin, disjoin

__all__ = ["structure_function", "success_function"]


def structure_function(tree: FaultTree) -> Formula:
    """Return the structure function ``f(t)`` of ``tree``.

    The formula is built bottom-up over the DAG, so shared sub-trees produce
    shared (identical, hash-equal) sub-formulas, which the Tseitin encoder
    then encodes only once.
    """
    return _bottom_up(tree, dual=False)


def success_function(tree: FaultTree) -> Formula:
    """Return the success-tree formula ``X(t) = ¬f(t)`` in negation normal form.

    This is the classical success tree (paper Step 1), built in the same
    bottom-up pass as :func:`structure_function`: every event ``x`` becomes
    ``¬x``, AND and OR gates swap, and a k-of-n voting gate becomes an
    ``(n-k+1)``-of-``n`` gate over the complemented children.
    """
    return _bottom_up(tree, dual=True)


def _bottom_up(tree: FaultTree, *, dual: bool) -> Formula:
    """The structure function of ``tree``, or with ``dual`` its complement."""
    tree.validate()
    formulas: Dict[str, Formula] = {}
    for name in tree.topological_order():
        if tree.is_event(name):
            formulas[name] = Not(Var(name)) if dual else Var(name)
            continue
        gate = tree.gates[name]
        children = [formulas[child] for child in gate.children]
        if gate.gate_type is GateType.AND:
            formulas[name] = disjoin(children) if dual else conjoin(children)
        elif gate.gate_type is GateType.OR:
            formulas[name] = conjoin(children) if dual else disjoin(children)
        elif gate.gate_type is GateType.VOTING:
            k = gate.k or 1
            formulas[name] = AtLeast(len(children) - k + 1 if dual else k, children)
        else:  # pragma: no cover - defensive
            raise FaultTreeError(f"unsupported gate type {gate.gate_type!r}")
    return formulas[tree.top_event]
