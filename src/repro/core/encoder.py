"""Encoding of the MPMCS problem as Weighted Partial MaxSAT (paper Steps 1–4).

Given a fault tree, the encoder produces a :class:`~repro.maxsat.instance.WPMaxSATInstance`
whose optimal solutions are exactly the Maximum Probability Minimal Cut Sets:

* **Hard clauses** — the Tseitin CNF of the structure function ``f(t)`` with
  the root asserted, i.e. "the top event occurs".
* **Soft clauses** — one unit clause ``(¬x_i)`` per basic event with weight
  ``w_i = -log(p(x_i))``: falsifying it (making the event part of the cut set)
  costs ``w_i``.  The engines optimise the integer
  :func:`~repro.maxsat.instance.objective_weight` of ``w_i``, which adds to
  the scaled cost a tie-break by size, then by sorted event names.  So the
  optimum is unique and is the canonical MPMCS, and each blocked re-solve
  returns the next minimal cut set in canonical order.

The hard CNF is built gate by gate (:func:`assemble_structure_cnf`): every
gate contributes the Tseitin clauses of its own connective, stitched onto its
children's literals, so Steps 1 and 2 never materialise ``f(t)`` as a formula.
A gate's clauses depend only on its shape ``(gate_type, k, arity)``, and a
tree has few distinct shapes, so each shape is encoded once per process and
then only relocated.

Equivalence with the paper's presentation
-----------------------------------------
The paper phrases the encoding over the *success tree* variables
``y_i = ¬x_i``:  soft clauses ``(y_i)`` are added and the hard part is
``¬Y(t)``.  Substituting ``y_i = ¬x_i`` turns each soft clause ``(y_i)`` into
``(¬x_i)`` and turns ``¬Y(t)`` into ``f(t)``, i.e. exactly the encoding built
here; the two formulations are literally isomorphic (a variable renaming).  We
work directly over the event variables ``x_i`` so that solver models can be
read back without an extra renaming step.  Because all gates are monotone and
all weights are positive, an optimal solution never sets an unnecessary event
to true, hence the extracted set is an inclusion-minimal cut set — the MPMCS.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.weights import log_weight
from repro.exceptions import FaultTreeError
from repro.fta.gates import Gate, GateType
from repro.fta.tree import FaultTree
from repro.logic.cnf import CNF
from repro.logic.formula import AtLeast, Formula, Var, conjoin, disjoin
from repro.logic.tseitin import CNFFragment, TseitinResult, encode_fragment
from repro.maxsat.instance import DEFAULT_PRECISION, WPMaxSATInstance, objective_weight

__all__ = [
    "MPMCSEncoding",
    "assemble_structure_cnf",
    "encode_mpmcs",
    "gate_fragment",
    "shape_fragment",
]


def _slot(index: int) -> str:
    """Synthetic interface name of the ``index``-th child slot of a gate."""
    return f"@{index}"


@functools.lru_cache(maxsize=256)
def shape_fragment(gate_type: GateType, k: Optional[int], arity: int) -> CNFFragment:
    """Relocatable CNF fragment of a gate shape over anonymous child slots.

    The fragment treats each child as an opaque input (slot ``@0``, ``@1``,
    …) so it contains no node names: every gate of the same type, threshold
    and arity shares it.  Memoised per process (fragments are immutable, so
    sharing one is safe); :meth:`cache_info` counts the shapes encoded.
    """
    slots = [Var(_slot(index)) for index in range(arity)]
    if gate_type is GateType.AND:
        formula: Formula = conjoin(slots)
    elif gate_type is GateType.OR:
        formula = disjoin(slots)
    elif gate_type is GateType.VOTING:
        formula = AtLeast(k or 1, slots)
    else:  # pragma: no cover - defensive
        raise FaultTreeError(f"unsupported gate type {gate_type!r}")
    return encode_fragment(formula, [_slot(index) for index in range(arity)])


def gate_fragment(gate: Gate) -> CNFFragment:
    """The (memoised) fragment of ``gate``'s shape; see :func:`shape_fragment`."""
    return shape_fragment(gate.gate_type, gate.k, len(gate.children))


def assemble_structure_cnf(tree: FaultTree) -> TseitinResult:
    """CNF of ``tree``'s structure function stitched from per-gate fragments.

    Equisatisfiable (over the event variables) with the monolithic
    ``tseitin_encode(structure_function(tree))``, but built bottom-up in one
    iterative pass, so arbitrarily deep trees encode without recursion.
    Each basic event gets a named variable; each gate instantiates its
    shape's :class:`~repro.logic.tseitin.CNFFragment` on its children's
    literals.  The root literal is asserted, exactly like ``tseitin_encode``
    with ``assert_root=True``.
    """
    tree.validate()
    cnf = CNF()
    aux_vars: List[int] = []

    def new_aux() -> int:
        var = cnf.new_var()
        aux_vars.append(var)
        return var

    gates = tree.gates
    literals: Dict[str, int] = {}
    for name in tree.topological_order():
        gate = gates.get(name)
        if gate is None:
            literals[name] = cnf.var_for(name)
            continue
        inputs = {
            _slot(index): literals[child] for index, child in enumerate(gate.children)
        }
        literals[name] = gate_fragment(gate).instantiate(
            inputs, new_var=new_aux, add_clause=cnf.add_clause
        )
    root = literals[tree.top_event]
    cnf.add_clause([root])
    return TseitinResult(
        cnf=cnf,
        root_literal=root,
        var_map=dict(cnf.name_to_var),
        aux_vars=tuple(aux_vars),
    )


@dataclass
class MPMCSEncoding:
    """The Weighted Partial MaxSAT encoding of an MPMCS problem.

    Attributes
    ----------
    instance:
        The encoded MaxSAT instance (hard Tseitin clauses + soft event clauses).
    event_vars:
        Mapping from basic event name to its CNF variable.
    var_events:
        Inverse of ``event_vars``.
    weights:
        The ``-log`` weight of each basic event (paper Step 3 / Table I).
        Reported costs and probabilities come from these, not from the
        integer objective the engines optimise.
    num_aux_vars:
        Number of auxiliary Tseitin variables introduced in Step 2.
    """

    instance: WPMaxSATInstance
    event_vars: Dict[str, int]
    var_events: Dict[int, str]
    weights: Dict[str, float]
    num_aux_vars: int

    def cut_set_from_model(self, model: Dict[int, bool]) -> Tuple[str, ...]:
        """Extract the cut set (events set to true) from a MaxSAT model."""
        members = [
            name for name, var in self.event_vars.items() if model.get(var, False)
        ]
        return tuple(sorted(members))


def encode_mpmcs(tree: FaultTree, *, precision: int = DEFAULT_PRECISION) -> MPMCSEncoding:
    """Encode the MPMCS problem of ``tree`` as Weighted Partial MaxSAT.

    Parameters
    ----------
    tree:
        The fault tree to analyse.  It is validated first; a valid tree has
        every node reachable from the top event, so every basic event gets a
        variable and a soft clause.
    precision:
        Integer scaling precision for the float weights (see
        :class:`~repro.maxsat.instance.WPMaxSATInstance`).
    """
    structure = assemble_structure_cnf(tree)
    instance = WPMaxSATInstance(precision=precision)
    instance.add_hard_cnf(structure.cnf)

    event_vars: Dict[str, int] = {}
    weights: Dict[str, float] = {}
    ranks = {name: rank for rank, name in enumerate(sorted(tree.events))}
    for name, event in tree.events.items():
        var = structure.var_map[name]
        weight = log_weight(event.probability)
        event_vars[name] = var
        weights[name] = weight
        instance.add_soft(
            [-var],
            weight,
            label=name,
            scaled_weight=objective_weight(weight, ranks[name], len(ranks), precision),
        )

    return MPMCSEncoding(
        instance=instance,
        event_vars=event_vars,
        var_events={var: name for name, var in event_vars.items()},
        weights=weights,
        num_aux_vars=structure.num_aux_vars,
    )
