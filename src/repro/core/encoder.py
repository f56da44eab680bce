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
then only relocated.  The hard clauses depend on the gates alone, so they are
encoded once per structure, not cached per tree: the tree's
:class:`~repro.fta.compiled.CompiledStructure`, shared by its
probability-only copies, keeps them, and each encoding adds only the soft
clauses (Steps 3–4) of its own probabilities.

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
from repro.fta.compiled import CompiledStructure
from repro.fta.gates import Gate, GateType
from repro.fta.tree import FaultTree
from repro.logic.formula import AtLeast, Formula, Var, conjoin, disjoin
from repro.logic.tseitin import CNFFragment, encode_fragment
from repro.maxsat.instance import DEFAULT_PRECISION, WPMaxSATInstance, objective_weight

__all__ = [
    "MPMCSEncoding",
    "StructureCNF",
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


@dataclass(frozen=True)
class StructureCNF:
    """The hard clauses of a tree's structure function, root asserted.

    ``clauses`` holds the gates' clauses in assembly order, then the unit
    clause asserting ``root``, over variables ``1..num_vars``: the basic
    events (``event_vars``, in variable order) and ``num_aux_vars`` gate
    variables.  ``instance`` is a MaxSAT instance with these hard clauses and
    no soft clause, each clause checked once by
    :meth:`~repro.maxsat.instance.WPMaxSATInstance.add_hard`.  A record is
    memoised per structure (:attr:`~repro.fta.compiled.CompiledStructure.cnf`),
    so nothing may modify it: an encoding takes a copy of ``instance``.
    """

    clauses: List[Tuple[int, ...]]
    num_vars: int
    event_vars: Dict[str, int]
    root: int
    num_aux_vars: int
    instance: WPMaxSATInstance


def assemble_structure_cnf(structure: CompiledStructure) -> StructureCNF:
    """Clauses of a compiled structure's function stitched from per-gate fragments.

    Equisatisfiable (over the event variables) with the monolithic
    ``tseitin_encode(structure_function(tree))``, but built bottom-up in one
    iterative pass, so arbitrarily deep trees encode without recursion.
    Each basic event gets the next variable; each gate instantiates its
    shape's :class:`~repro.logic.tseitin.CNFFragment` on its children's
    literals, its auxiliary variables following.  The root literal is
    asserted, exactly like ``tseitin_encode`` with ``assert_root=True``.
    Analyses read the memoised result, ``tree.compiled().cnf``, instead of
    calling this.
    """
    clauses: List[Tuple[int, ...]] = []
    event_vars: Dict[str, int] = {}
    literals: Dict[str, int] = {}
    num_vars = 0
    gates = {gate.name: gate for gate in structure.gates}
    for name in structure.order:
        gate = gates.get(name)
        if gate is None:
            num_vars += 1
            literals[name] = event_vars[name] = num_vars
            continue
        fragment = gate_fragment(gate)
        literals[name] = fragment.instantiate(
            [literals[child] for child in gate.children], num_vars, clauses
        )
        num_vars += fragment.num_internal_vars
    root = literals[structure.order[structure.top]]
    clauses.append((root,))
    instance = WPMaxSATInstance()
    instance.ensure_num_vars(num_vars)
    for clause in clauses:
        instance.add_hard(clause)
    return StructureCNF(
        clauses=clauses,
        num_vars=num_vars,
        event_vars=event_vars,
        root=root,
        num_aux_vars=num_vars - len(event_vars),
        instance=instance,
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


def encode_mpmcs(tree: FaultTree) -> MPMCSEncoding:
    """Encode the MPMCS problem of ``tree`` as Weighted Partial MaxSAT.

    The tree is validated first; a valid tree has every node reachable from
    the top event, so every basic event gets a variable and a soft clause.
    The hard clauses are encoded once per structure, not cached per tree:
    the encoding copies the structure's memoised hard-only instance and adds
    one soft clause per event, weighted at
    :data:`~repro.maxsat.instance.DEFAULT_PRECISION`.  The caller owns the
    result and may add clauses to it.
    """
    structure = tree.compiled().cnf
    instance = structure.instance.copy()

    event_vars: Dict[str, int] = {}
    weights: Dict[str, float] = {}
    ranks = {name: rank for rank, name in enumerate(sorted(tree.events))}
    for name, event in tree.events.items():
        var = structure.event_vars[name]
        weight = log_weight(event.probability)
        event_vars[name] = var
        weights[name] = weight
        instance.add_soft(
            [-var],
            weight,
            label=name,
            scaled_weight=objective_weight(weight, ranks[name], len(ranks), DEFAULT_PRECISION),
        )

    return MPMCSEncoding(
        instance=instance,
        event_vars=event_vars,
        var_events={var: name for name, var in event_vars.items()},
        weights=weights,
        num_aux_vars=structure.num_aux_vars,
    )
