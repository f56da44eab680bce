"""The compiled structure of a validated fault tree.

Validating a :class:`~repro.fta.tree.FaultTree` builds one immutable
:class:`CompiledStructure`: the bottom-up node order and a flat gate program
over node indices.  It depends on the gates and the top event alone, so
every probability-only copy of a tree (:meth:`FaultTree.copy` followed by
:meth:`FaultTree.set_probability`, as in sweeps and live monitors) shares
the object, and structure-only work — the order, the per-node structure
hashes, the gate half of the whole-tree content hash, the MPMCS encoding's
hard clauses — is done once per structure instead of once per copy.  Both
hash formats live here, so :mod:`repro.api.cache` keys its artifacts
without knowing them.

Evaluation is bit-parallel with Python integers as lanes: bit ``j`` of a
node's value is the node's state in lane ``j``, so an AND gate is one ``&``
per child, an OR gate one ``|`` per child and a k-of-n voting gate a
bit-sliced counter compared against ``k``.  One pass answers as many
assignments as there are lanes; :meth:`FaultTree.is_minimal_cut_set` puts
the set C in lane 0 and C without its i-th event in lane i.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.fta.gates import Gate, GateType

if TYPE_CHECKING:  # repro.core builds on repro.fta, so only for annotations
    from repro.core.encoder import StructureCNF

__all__ = ["CompiledStructure"]

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
    """

    __slots__ = (
        "order", "top", "gates", "_leaves", "_program", "_node_hashes", "_gates_json", "_cnf"
    )

    def __init__(self, order: Sequence[str], gates: Mapping[str, Gate], top_event: str) -> None:
        self.order: Tuple[str, ...] = tuple(order)
        index = {name: position for position, name in enumerate(self.order)}
        self.top = index[top_event]
        # Basic events by name, in sorted order (the content hash's order).
        self._leaves: Dict[str, int] = {
            name: index[name] for name in sorted(self.order) if name not in gates
        }
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
