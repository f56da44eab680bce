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
gate contributes the Tseitin clauses of its own connective — an AND, OR or
k-of-n clause generator of :mod:`repro.logic.tseitin` — over its children's
literals, so Steps 1 and 2 never materialise ``f(t)`` as a formula.  The hard
clauses depend on the gates alone, so they are encoded once per structure,
not cached per tree: the tree's :class:`~repro.fta.compiled.CompiledStructure`,
shared by its probability-only copies, keeps them, and each encoding adds
only the soft clauses (Steps 3–4) of its own probabilities.

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

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.weights import log_weight
from repro.exceptions import FaultTreeError
from repro.fta.compiled import CompiledStructure, Skeleton
from repro.fta.gates import Gate, GateType
from repro.fta.tree import FaultTree
from repro.logic.tseitin import and_clauses, at_least_clauses, or_clauses
from repro.maxsat.instance import DEFAULT_PRECISION, WPMaxSATInstance, scale_weight

__all__ = [
    "MPMCSEncoding",
    "StructureCNF",
    "assemble_skeleton_cnf",
    "assemble_structure_cnf",
    "encode_mpmcs",
    "event_weights",
    "weigh_events",
]


@dataclass(frozen=True)
class StructureCNF:
    """The hard clauses of a tree's structure function, root asserted.

    ``clauses`` holds the gates' clauses in assembly order, then the unit
    clause asserting ``root``, over variables ``1..num_vars``: the leaves
    (``event_vars``, in variable order) and ``num_aux_vars`` gate variables.
    The leaves are the basic events, or for a module's skeleton
    (:func:`assemble_skeleton_cnf`) its events and pseudo-events.
    ``instance`` is a MaxSAT instance with these hard clauses and no soft
    clause, each clause checked once by
    :meth:`~repro.maxsat.instance.WPMaxSATInstance.add_hard`.  A record is
    memoised per structure (:attr:`~repro.fta.compiled.CompiledStructure.cnf`),
    so nothing may modify it: an encoding takes a copy of ``instance``.
    ``instance`` keeps one level-0 solver loaded with the clauses
    (:meth:`~repro.maxsat.instance.WPMaxSATInstance.keep_loaded_solver`),
    loaded by the first solve, so every later solve of the record or of a
    copy starts from a copy of it.
    """

    clauses: List[Tuple[int, ...]]
    num_vars: int
    event_vars: Dict[str, int]
    root: int
    num_aux_vars: int
    instance: WPMaxSATInstance


def _assemble(order: Iterable[str], gates: Iterable[Gate], root: str) -> StructureCNF:
    """The clauses of ``gates`` over the nodes ``order`` (bottom-up), ``root`` asserted.

    A node of ``order`` that is none of ``gates`` is a leaf and gets the next
    variable; each gate's clause generator
    (:func:`~repro.logic.tseitin.and_clauses`,
    :func:`~repro.logic.tseitin.or_clauses` or
    :func:`~repro.logic.tseitin.at_least_clauses`) defines it over its
    children's literals, its auxiliary variables following.
    """
    by_name = {gate.name: gate for gate in gates}
    clauses: List[Tuple[int, ...]] = []
    event_vars: Dict[str, int] = {}
    literals: Dict[str, int] = {}
    num_vars = 0
    for name in order:
        gate = by_name.get(name)
        if gate is None:
            num_vars += 1
            literals[name] = event_vars[name] = num_vars
            continue
        children = [literals[child] for child in gate.children]
        if gate.gate_type is GateType.AND:
            literals[name], num_vars = and_clauses(children, num_vars, clauses)
        elif gate.gate_type is GateType.OR:
            literals[name], num_vars = or_clauses(children, num_vars, clauses)
        elif gate.gate_type is GateType.VOTING:
            literals[name], num_vars = at_least_clauses(gate.k or 1, children, num_vars, clauses)
        else:  # pragma: no cover - defensive
            raise FaultTreeError(f"unsupported gate type {gate.gate_type!r}")
    clauses.append((literals[root],))
    instance = WPMaxSATInstance()
    instance.ensure_num_vars(num_vars)
    for clause in clauses:
        instance.add_hard(clause)
    instance.keep_loaded_solver()
    return StructureCNF(
        clauses=clauses,
        num_vars=num_vars,
        event_vars=event_vars,
        root=literals[root],
        num_aux_vars=num_vars - len(event_vars),
        instance=instance,
    )


def assemble_structure_cnf(structure: CompiledStructure) -> StructureCNF:
    """The Tseitin clauses of a compiled structure's function, built gate by gate.

    Equisatisfiable (over the event variables) with the monolithic
    ``tseitin_encode(structure_function(tree))``, but built bottom-up in one
    iterative pass, so arbitrarily deep trees encode without recursion.
    Each basic event gets the next variable; each gate's clause generator
    defines it over its children's literals, its auxiliary variables
    following.  The root literal is asserted, exactly like
    ``tseitin_encode`` with ``assert_root=True``.
    Analyses read the memoised result, ``tree.compiled().cnf``, instead of
    calling this.
    """
    return _assemble(structure.order, structure.gates, structure.order[structure.top])


def assemble_skeleton_cnf(skeleton: Skeleton) -> StructureCNF:
    """The clauses of a module's skeleton, built like :func:`assemble_structure_cnf`.

    Each leaf — a basic event, or the root of a collapsed sub-module — gets
    one variable (``event_vars``), so a solve over the skeleton treats every
    sub-module as a single pseudo-event.  Analyses read the memoised result,
    :attr:`~repro.fta.compiled.Skeleton.cnf`.
    """
    return _assemble(skeleton.order, skeleton.gates, skeleton.root)


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


def weigh_events(
    probabilities: Iterable[Tuple[str, float]], structure: CompiledStructure
) -> Iterator[Tuple[str, float, int]]:
    """Each ``(name, probability)``'s ``-log`` weight and integer objective, in one pass.

    Yields ``(name, weight, objective)``: ``weight`` is
    :func:`~repro.core.weights.log_weight` of the probability and
    ``objective`` its :func:`~repro.maxsat.instance.objective_weight` at
    :data:`~repro.maxsat.instance.DEFAULT_PRECISION`, for the event's rank
    (:attr:`~repro.fta.compiled.CompiledStructure.event_ranks`) among the
    structure's events.  The weight is quantised by
    :func:`~repro.maxsat.instance.scale_weight`; the rank lookup and the
    shift are shared by the pass.
    """
    ranks = structure.event_ranks
    count = len(ranks)
    shift = count + 1
    for name, probability in probabilities:
        weight = log_weight(probability)
        scaled = scale_weight(weight, DEFAULT_PRECISION)
        yield name, weight, ((scaled * shift + 1) << shift) - (1 << (count - ranks[name]))


def event_weights(tree: FaultTree) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Each basic event's ``-log`` weight and integer objective
    (:func:`weigh_events`), in the tree's declaration order."""
    weights: Dict[str, float] = {}
    objective: Dict[str, int] = {}
    events = ((name, event.probability) for name, event in tree.events.items())
    for name, weight, scaled in weigh_events(events, tree.compiled()):
        weights[name] = weight
        objective[name] = scaled
    return weights, objective


def encode_mpmcs(tree: FaultTree) -> MPMCSEncoding:
    """Encode the MPMCS problem of ``tree`` as Weighted Partial MaxSAT.

    The tree is validated first; a valid tree has every node reachable from
    the top event, so every basic event gets a variable and a soft clause.
    The hard clauses are encoded once per structure, not cached per tree:
    the encoding copies the structure's memoised hard-only instance and adds
    one soft clause per event, weighted by :func:`event_weights`.  The
    caller owns the result and may add clauses to it.
    """
    structure = tree.compiled().cnf
    instance = structure.instance.copy()
    event_vars = structure.event_vars
    weights, objective = event_weights(tree)
    for name, weight in weights.items():
        instance.add_soft([-event_vars[name]], weight, label=name, scaled_weight=objective[name])

    return MPMCSEncoding(
        instance=instance,
        event_vars={name: event_vars[name] for name in weights},
        var_events={event_vars[name]: name for name in weights},
        weights=weights,
        num_aux_vars=structure.num_aux_vars,
    )
