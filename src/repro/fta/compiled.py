"""The compiled structure of a validated fault tree.

Validating a :class:`~repro.fta.tree.FaultTree` builds one immutable
:class:`CompiledStructure`: the bottom-up node order and a flat gate program
over node indices.  It depends on the gates and the top event alone, so
every probability-only copy of a tree (:meth:`FaultTree.copy` followed by
:meth:`FaultTree.set_probability`, as in sweeps and live monitors) shares
the object, and structure-only work — the order, the event ranks, the
per-node structure hashes, the gate half of the whole-tree content hash, the
independent modules, the MPMCS encoding's hard clauses — is done once per
structure instead of once per copy.  Both
hash formats live here, so :mod:`repro.api.cache` keys its artifacts
without knowing them.

Evaluation is bit-parallel with Python integers as lanes: bit ``j`` of a
node's value is the node's state in lane ``j``, so an AND gate is one ``&``
per child, an OR gate one ``|`` per child and a k-of-n voting gate a
bit-sliced counter compared against ``k``.  One pass answers as many
assignments as there are lanes; :meth:`FaultTree.is_minimal_cut_set` puts
the set C in lane 0 and C without its i-th event in lane i.

The independent modules (:attr:`CompiledStructure.modules`) come from the
linear-time visit-date traversal of Dutuit & Rauzy ("A Linear-Time Algorithm
to Find Modules of Fault Trees", IEEE Trans. Reliability 45(3), 1996): one
depth-first pass dates every encounter of every node, and a gate is a module
exactly when all encounters of its descendants fall strictly between its own
first and second visit.  Both passes are iterative, so depth is unbounded.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.fta.gates import Gate, GateType

if TYPE_CHECKING:  # repro.core builds on repro.fta, so only for annotations
    from repro.core.encoder import StructureCNF

__all__ = ["CompiledStructure", "Skeleton"]

_AND = GateType.AND
_OR = GateType.OR


def _at_least(k: int, inputs: List[int]) -> int:
    """Lanes in which at least ``k`` (≥ 1) of ``inputs`` are set.

    ``bits[j]`` holds bit j of every lane's count; each input is added with
    a ripple carry, then the count is compared with ``k`` from the top bit
    down (``equal``: lanes whose count matches ``k`` so far, ``above``:
    lanes whose count already exceeds it).
    """
    bits: List[int] = []
    for carry in inputs:
        for j, bit in enumerate(bits):
            bits[j] = bit ^ carry
            carry &= bit
            if not carry:
                break
        else:
            if carry:
                bits.append(carry)
    if k.bit_length() > len(bits):
        return 0
    above, equal = 0, -1
    for j in range(len(bits) - 1, -1, -1):
        bit = bits[j]
        if (k >> j) & 1:
            equal &= bit
        else:
            above |= equal & bit
            equal &= ~bit
    return above | equal


class Skeleton:
    """One module of a compiled structure with its maximal proper sub-modules collapsed.

    The leaves of a skeleton are the basic events it reaches directly and the
    roots of its maximal proper sub-modules, each standing for one
    pseudo-event; its gates are the module's root and the non-module gates
    between the root and the leaves.  Every node of a structure other than
    the top is a leaf or a gate of exactly one skeleton.

    Attributes
    ----------
    root:
        Name of the module's root gate.
    order:
        The skeleton's nodes in bottom-up order (a subsequence of
        :attr:`CompiledStructure.order`), the root last.
    gates:
        The skeleton's gates in :attr:`order`, the root last.
    """

    __slots__ = ("root", "order", "gates", "_cnf")

    def __init__(self, order: Sequence[str], gates: Sequence[Gate]) -> None:
        self.order: Tuple[str, ...] = tuple(order)
        self.gates: Tuple[Gate, ...] = tuple(gates)
        self.root: str = self.order[-1]
        self._cnf: Optional["StructureCNF"] = None

    @property
    def by_rule(self) -> bool:
        """Whether every child of the root is a leaf (no gate between them).

        The root's children then have pairwise disjoint events, so the
        module's optimum under any additive objective follows from the
        children's optima without a search.
        """
        return len(self.gates) == 1

    @property
    def cnf(self) -> "StructureCNF":
        """The skeleton's hard clauses, root asserted, one variable per leaf.

        Assembled on first use by
        :func:`~repro.core.encoder.assemble_skeleton_cnf`, the assembler of
        the whole structure's clauses, and shared by every copy; treat it as
        read-only.
        """
        if self._cnf is None:
            from repro.core.encoder import assemble_skeleton_cnf

            self._cnf = assemble_skeleton_cnf(self)
        return self._cnf


class CompiledStructure:
    """Immutable bottom-up form of one validated fault-tree structure.

    Built by :meth:`FaultTree.validate` and shared by every copy of the tree
    that changes probabilities only; a structural edit (a new event or gate,
    another top event) drops the tree's reference and the next validation
    builds a fresh one, so copies never see each other's edits.

    Attributes
    ----------
    order:
        Node names in bottom-up topological order (children first, the top
        event last).
    top:
        Index of the top event in :attr:`order`.
    gates:
        The gates, in :attr:`order`.
    event_ranks:
        Each basic event's place in sorted name order, the ranks of the
        MPMCS objective (:func:`~repro.maxsat.instance.objective_weight`).
    """

    __slots__ = (
        "order",
        "top",
        "gates",
        "event_ranks",
        "_leaves",
        "_program",
        "_node_hashes",
        "_gates_json",
        "_cnf",
        "_modules",
    )

    def __init__(self, order: Sequence[str], gates: Mapping[str, Gate], top_event: str) -> None:
        self.order: Tuple[str, ...] = tuple(order)
        index = {name: position for position, name in enumerate(self.order)}
        self.top = index[top_event]
        # Basic events by name, in sorted order (the content hash's order).
        self._leaves: Dict[str, int] = {
            name: index[name] for name in sorted(self.order) if name not in gates
        }
        self.event_ranks: Dict[str, int] = {name: rank for rank, name in enumerate(self._leaves)}
        self.gates: Tuple[Gate, ...] = tuple(gates[name] for name in self.order if name in gates)
        position = index.__getitem__
        self._program: Tuple[Tuple[int, GateType, int, Tuple[int, ...]], ...] = tuple(
            [
                (position(gate.name), gate.gate_type, gate.k or 0, tuple(map(position, gate.children)))
                for gate in self.gates
            ]
        )
        self._node_hashes: Optional[Dict[str, str]] = None
        self._gates_json: Optional[str] = None
        self._cnf: Optional["StructureCNF"] = None
        self._modules: Optional[Tuple[Skeleton, ...]] = None

    def evaluate_lanes(self, occurred: Mapping[str, int]) -> int:
        """Top-event value in every lane: bit j is set when lane j fails the top.

        ``occurred`` maps a basic event to the mask of lanes in which it
        occurs; events it omits occur in no lane, and names that are not
        basic events of the tree (gates, unknown names) are ignored.
        """
        values = [0] * len(self.order)
        leaves = self._leaves
        for name, mask in occurred.items():
            position = leaves.get(name)
            if position is not None:
                values[position] = mask
        for node, kind, k, children in self._program:
            if kind is _AND:
                value = values[children[0]]
                for child in children[1:]:
                    value &= values[child]
            elif kind is _OR:
                value = 0
                for child in children:
                    value |= values[child]
            else:
                value = _at_least(k, [values[child] for child in children])
            values[node] = value
        return values[self.top]

    @property
    def node_hashes(self) -> Dict[str, str]:
        """Structure-only content hash of the subtree rooted at every node.

        A basic event hashes its *name* only and a gate its type, its voting
        threshold and the sorted hashes of its children — probabilities never
        enter — so two subtrees hash equal exactly when their monotone
        structure functions are syntactically identical up to child order.
        Computed on first use and shared by every copy; treat it as
        read-only.
        """
        if self._node_hashes is None:
            hashes: Dict[str, str] = {}
            for name in self._leaves:
                hashes[name] = hashlib.sha256(f"event:{name}".encode("utf-8")).hexdigest()
            for gate in self.gates:
                children = ",".join(sorted(hashes[child] for child in gate.children))
                payload = f"gate:{gate.gate_type.value}:{gate.k if gate.k is not None else ''}:{children}"
                hashes[gate.name] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            self._node_hashes = {name: hashes[name] for name in self.order}
        return self._node_hashes

    @property
    def cnf(self) -> "StructureCNF":
        """The hard clauses of the structure's MPMCS encoding, root asserted.

        Assembled on first use by
        :func:`~repro.core.encoder.assemble_structure_cnf` and shared by every
        copy and by both MaxSAT routes; treat it as read-only.
        """
        if self._cnf is None:
            from repro.core.encoder import assemble_structure_cnf

            self._cnf = assemble_structure_cnf(self)
        return self._cnf

    @property
    def modules(self) -> Tuple[Skeleton, ...]:
        """The skeleton of every independent module, sub-modules first, the top last.

        A module is a gate whose descendants have no parent outside its
        subtree; the top gate always is one, and a tree whose top is a basic
        event has none.  Computed on first use with the visit-date algorithm
        (see the module docstring) and shared by every copy; treat it as
        read-only.
        """
        if self._modules is None:
            self._modules = tuple(self._skeletons())
        return self._modules

    def _module_flags(self, kids: Sequence[Tuple[int, ...]]) -> List[bool]:
        """Per node index: does the node root an independent module?

        ``kids`` holds each node's children by index (none for an event).
        """
        size = len(self.order)
        # Dates of each node's first encounter, of the end of its first visit
        # and of its last encounter; every encounter advances the clock.
        first = [0] * size
        second = [0] * size
        last = [0] * size
        date = first[self.top] = 1
        stack: List[Tuple[int, Iterator[int]]] = [(self.top, iter(kids[self.top]))]
        while stack:
            node, pending = stack[-1]
            child = next(pending, None)
            date += 1
            if child is None:
                stack.pop()
                second[node] = last[node] = date
            elif first[child]:
                last[child] = date
            elif kids[child]:
                first[child] = date
                stack.append((child, iter(kids[child])))
            else:
                first[child] = second[child] = last[child] = date
        # Earliest and latest encounter over each node and its descendants.
        low = first[:]
        high = last[:]
        flags = [False] * size
        for node, _, _, children in self._program:
            earliest = min([low[child] for child in children])
            latest = max([high[child] for child in children])
            flags[node] = first[node] < earliest and latest < second[node]
            low[node] = min(low[node], earliest)
            high[node] = max(high[node], latest)
        return flags

    def _skeletons(self) -> Iterator[Skeleton]:
        if self.order[self.top] in self._leaves:
            return
        kids: List[Tuple[int, ...]] = [()] * len(self.order)
        gates: Dict[int, Gate] = {}
        for (node, _, _, children), gate in zip(self._program, self.gates):
            kids[node] = children
            gates[node] = gate
        flags = self._module_flags(kids)
        # The module whose skeleton holds each node as a leaf or a gate: walk
        # down from every module root through the non-module gates.  Module
        # roots come in bottom-up order, so sub-modules come first.
        owner = [-1] * len(self.order)
        members: Dict[int, List[int]] = {node: [] for node in gates if flags[node]}
        for root in members:
            stack = [root]
            while stack:
                for child in kids[stack.pop()]:
                    if owner[child] < 0:
                        owner[child] = root
                        if kids[child] and not flags[child]:
                            stack.append(child)
        for node, root in enumerate(owner):
            if root >= 0:
                members[root].append(node)
        for root, nodes in members.items():
            # Every member is a descendant of the root, so the root comes last.
            nodes.append(root)
            yield Skeleton(
                [self.order[node] for node in nodes],
                [gates[node] for node in nodes if node == root or (kids[node] and not flags[node])],
            )

    def content_hash(self, probabilities: Mapping[str, float]) -> str:
        """SHA-256 of the structure together with the given event probabilities.

        The payload is the canonical JSON ``{"events":[[name, hex], ...],
        "gates":[[name, type, k or -1, children], ...],"top":name}``, events
        and gates sorted by name, children in declaration order; persistent
        artifact stores address entries by it, so its bytes never change.
        Everything after the events is serialised once per structure.
        """
        if self._gates_json is None:
            gates = sorted(
                (gate.name, gate.gate_type.value, gate.k if gate.k is not None else -1, list(gate.children))
                for gate in self.gates
            )
            self._gates_json = json.dumps(
                {"gates": gates, "top": self.order[self.top]}, separators=(",", ":")
            )
        events = json.dumps(
            {"events": [(name, probabilities[name].hex()) for name in self._leaves]},
            separators=(",", ":"),
        )
        payload = events[:-1] + "," + self._gates_json[1:]
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
