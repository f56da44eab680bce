"""The fault tree container.

A :class:`FaultTree` is a directed acyclic graph of gates and basic events
with a designated *top event* (the undesired system state).  Although commonly
called a tree, sharing of sub-trees and basic events between gates is allowed,
as in the Galileo format and real-world models.

The class enforces the structural invariants the rest of the library relies
on (unique names, defined children, acyclicity, a reachable top event) and
offers traversal and statistics helpers used by the analyses, the workload
generator, and the reporting layer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.exceptions import FaultTreeError
from repro.fta.compiled import CompiledStructure
from repro.fta.events import BasicEvent
from repro.fta.gates import Gate, GateType

__all__ = ["FaultTree"]

Node = Union[BasicEvent, Gate]


class FaultTree:
    """A fault tree (more precisely, a fault DAG) with probabilities.

    Nodes are added with :meth:`add_basic_event` and :meth:`add_gate`; the top
    event is set either explicitly through :meth:`set_top_event` or via the
    ``top_event`` constructor argument.  :meth:`validate` checks the full set
    of structural invariants and is called automatically by the analyses.

    Validation builds the tree's :class:`~repro.fta.compiled.CompiledStructure`
    (bottom-up order, flat gate program, per-node structure hashes) once.
    :meth:`copy` and :meth:`set_probability` keep it, so every
    probability-only copy shares it; :meth:`add_basic_event`,
    :meth:`add_event`, :meth:`add_gate` and :meth:`set_top_event` drop it.
    """

    def __init__(self, name: str = "fault-tree", *, top_event: Optional[str] = None) -> None:
        if not name:
            raise FaultTreeError("fault tree name must be non-empty")
        self.name = name
        self._events: Dict[str, BasicEvent] = {}
        self._gates: Dict[str, Gate] = {}
        self._top_event: Optional[str] = top_event
        self._version = 0
        self._compiled: Optional[CompiledStructure] = None

    # -- construction -------------------------------------------------------------

    def add_basic_event(
        self,
        name: str,
        probability: float,
        *,
        description: Optional[str] = None,
    ) -> BasicEvent:
        """Add a basic event; returns the created :class:`BasicEvent`."""
        event = BasicEvent(name=name, probability=probability, description=description)
        self._check_fresh_name(name)
        self._events[name] = event
        self._structure_changed()
        return event

    def add_event(self, event: BasicEvent) -> BasicEvent:
        """Add an already-constructed :class:`BasicEvent`."""
        self._check_fresh_name(event.name)
        self._events[event.name] = event
        self._structure_changed()
        return event

    def add_gate(
        self,
        name: str,
        gate_type: Union[GateType, str],
        children: Sequence[str],
        *,
        k: Optional[int] = None,
        description: Optional[str] = None,
    ) -> Gate:
        """Add a gate; returns the created :class:`Gate`.

        Children may be declared before or after the gate itself; undefined
        children are only rejected at :meth:`validate` time, which makes
        top-down model construction convenient.
        """
        if isinstance(gate_type, str):
            gate_type = GateType.from_string(gate_type)
        gate = Gate(
            name=name,
            gate_type=gate_type,
            children=tuple(children),
            k=k,
            description=description,
        )
        self._check_fresh_name(name)
        self._gates[name] = gate
        self._structure_changed()
        return gate

    def set_top_event(self, name: str) -> None:
        """Declare ``name`` (an existing or future gate/event) as the top event."""
        if not name:
            raise FaultTreeError("top event name must be non-empty")
        self._top_event = name
        self._structure_changed()

    def _structure_changed(self) -> None:
        self._version += 1
        self._compiled = None

    def _check_fresh_name(self, name: str) -> None:
        if name in self._events or name in self._gates:
            raise FaultTreeError(f"node name {name!r} is already used in fault tree {self.name!r}")

    # -- accessors -----------------------------------------------------------------

    @property
    def top_event(self) -> str:
        if self._top_event is None:
            raise FaultTreeError(f"fault tree {self.name!r} has no top event")
        return self._top_event

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every structural or probability change.

        Lets callers tell that a tree object changed (or that an operation
        left it untouched) without comparing its content.
        """
        return self._version

    @property
    def events(self) -> Dict[str, BasicEvent]:
        """Mapping of basic event name to :class:`BasicEvent` (copy)."""
        return dict(self._events)

    @property
    def gates(self) -> Dict[str, Gate]:
        """Mapping of gate name to :class:`Gate` (copy)."""
        return dict(self._gates)

    @property
    def event_names(self) -> Tuple[str, ...]:
        return tuple(self._events.keys())

    @property
    def gate_names(self) -> Tuple[str, ...]:
        return tuple(self._gates.keys())

    @property
    def num_events(self) -> int:
        return len(self._events)

    @property
    def num_gates(self) -> int:
        return len(self._gates)

    @property
    def num_nodes(self) -> int:
        """Total node count (gates plus basic events)."""
        return len(self._events) + len(self._gates)

    def node(self, name: str) -> Node:
        """Return the gate or basic event called ``name``."""
        if name in self._events:
            return self._events[name]
        if name in self._gates:
            return self._gates[name]
        raise FaultTreeError(f"unknown node {name!r} in fault tree {self.name!r}")

    def is_event(self, name: str) -> bool:
        return name in self._events

    def is_gate(self, name: str) -> bool:
        return name in self._gates

    def probability(self, event_name: str) -> float:
        """Probability of the basic event called ``event_name``."""
        if event_name not in self._events:
            raise FaultTreeError(f"unknown basic event {event_name!r}")
        return self._events[event_name].probability

    def probabilities(self) -> Dict[str, float]:
        """Mapping of every basic event name to its probability."""
        return {name: event.probability for name, event in self._events.items()}

    def set_probability(self, event_name: str, probability: float) -> None:
        """Replace the probability of an existing basic event."""
        if event_name not in self._events:
            raise FaultTreeError(f"unknown basic event {event_name!r}")
        self._events[event_name] = self._events[event_name].with_probability(probability)
        self._version += 1

    # -- validation -----------------------------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant; raise :class:`FaultTreeError` otherwise.

        Invariants:

        * a top event is declared and refers to an existing node;
        * every gate child refers to an existing node;
        * the gate graph is acyclic;
        * every node is reachable from the top event (unreachable nodes almost
          always indicate a modelling error; a cycle among them is reported
          as unreachable nodes);
        * the tree contains at least one basic event.

        A successful validation builds the tree's compiled structure, which
        later calls (and probability-only copies) reuse; see :meth:`compiled`.
        """
        self.compiled()

    def compiled(self) -> CompiledStructure:
        """The tree's :class:`~repro.fta.compiled.CompiledStructure`, built on first use.

        Building it validates the tree.  The object is shared with every
        copy until a structural edit (:meth:`add_basic_event`,
        :meth:`add_event`, :meth:`add_gate`, :meth:`set_top_event`) drops
        it, and is immutable except for its skeletons' core memos
        (:attr:`~repro.fta.compiled.Skeleton.cores`), which every copy
        shares and sessions replace in a single assignment.
        """
        if self._compiled is None:
            self._compiled = CompiledStructure(self._checked_order(), self._gates, self.top_event)
        return self._compiled

    def _checked_order(self) -> List[str]:
        """Check the invariants of :meth:`validate`; return the bottom-up order."""
        if self._top_event is None:
            raise FaultTreeError(f"fault tree {self.name!r} has no top event")
        if self._top_event not in self._events and self._top_event not in self._gates:
            raise FaultTreeError(
                f"top event {self._top_event!r} is not a node of fault tree {self.name!r}"
            )
        if not self._events:
            raise FaultTreeError(f"fault tree {self.name!r} has no basic events")

        for gate in self._gates.values():
            for child in gate.children:
                if child not in self._events and child not in self._gates:
                    raise FaultTreeError(
                        f"gate {gate.name!r} references undefined child {child!r}"
                    )

        order = self._bottom_up_order()
        if len(order) < len(self._events) + len(self._gates):
            unreachable = (set(self._events) | set(self._gates)) - set(order)
            raise FaultTreeError(
                f"nodes not reachable from the top event: {sorted(unreachable)}"
            )
        return order

    def _children_of(self, name: str) -> Tuple[str, ...]:
        gate = self._gates.get(name)
        return gate.children if gate is not None else ()

    # -- traversal -------------------------------------------------------------------

    def reachable_from(self, name: str) -> Iterator[str]:
        """Yield every node reachable from ``name`` (including ``name``), DFS order."""
        seen: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            yield current
            stack.extend(reversed(self._children_of(current)))

    def topological_order(self) -> List[str]:
        """Return gate/event names in bottom-up topological order.

        Children always appear before their parents, so analyses can evaluate
        gates in a single pass.  Only nodes reachable from the top event are
        included.  The order is read from the compiled structure, so it is
        computed once per structure and shared by probability-only copies (a
        fresh list is returned each call).
        """
        return list(self.compiled().order)

    def _bottom_up_order(self) -> List[str]:
        """Post-order DFS from the top event, children in declaration order.

        Raises :class:`FaultTreeError` on a cycle through a reachable gate.
        """
        gates = self._gates
        top = self.top_event
        order: List[str] = []
        if top not in gates:
            return [top]
        on_stack, done = 1, 2
        state: Dict[str, int] = {top: on_stack}
        stack: List[Tuple[str, Iterator[str]]] = [(top, iter(gates[top].children))]
        while stack:
            node, children = stack[-1]
            for child in children:
                child_state = state.get(child)
                if child_state is None:
                    gate = gates.get(child)
                    if gate is None:
                        state[child] = done
                        order.append(child)
                        continue
                    state[child] = on_stack
                    stack.append((child, iter(gate.children)))
                    break
                if child_state == on_stack:
                    raise FaultTreeError(
                        f"fault tree {self.name!r} contains a cycle through {child!r}"
                    )
            else:
                state[node] = done
                order.append(node)
                stack.pop()
        return order

    def events_reachable_from_top(self) -> Tuple[str, ...]:
        """Names of basic events reachable from the top event."""
        return tuple(
            name for name in self.reachable_from(self.top_event) if name in self._events
        )

    def depth(self) -> int:
        """Length of the longest path from the top event to a leaf."""
        self.validate()
        depths: Dict[str, int] = {}
        for name in self.topological_order():
            children = self._children_of(name)
            if not children:
                depths[name] = 1
            else:
                depths[name] = 1 + max(depths[child] for child in children)
        return depths[self.top_event]

    # -- semantics ---------------------------------------------------------------------

    def evaluate(self, event_states: Mapping[str, bool]) -> bool:
        """Evaluate the top event for a given assignment of basic-event states.

        Missing events default to ``False`` (not occurred).  This is the
        structure function ``f(t)`` evaluated directly on the DAG through a
        dict, kept as the ground-truth oracle of the property-based tests;
        the analyses use the compiled, bit-parallel :meth:`is_cut_set`.
        """
        values: Dict[str, bool] = {}
        for name in self.topological_order():
            if name in self._events:
                values[name] = bool(event_states.get(name, False))
                continue
            gate = self._gates[name]
            child_values = [values[child] for child in gate.children]
            if gate.gate_type is GateType.AND:
                values[name] = all(child_values)
            elif gate.gate_type is GateType.OR:
                values[name] = any(child_values)
            else:
                values[name] = sum(child_values) >= (gate.k or 0)
        return values[self.top_event]

    def is_cut_set(self, events: Iterable[str]) -> bool:
        """True when occurrence of exactly ``events`` triggers the top event.

        Names that are not basic events of the tree are ignored.
        """
        return self.compiled().evaluate_lanes(dict.fromkeys(events, 1)) == 1

    def is_minimal_cut_set(self, events: Iterable[str]) -> bool:
        """True when ``events`` is a cut set and no proper subset is one.

        One bit-parallel pass: lane 0 holds the set C and lane i holds C
        without its i-th name, so C is minimal exactly when the top event
        fails in lane 0 alone.  A name that is not a basic event leaves its
        lane equal to lane 0, so such a C is never minimal.
        """
        names = list(dict.fromkeys(events))
        lanes = (2 << len(names)) - 1
        occurred = {name: lanes ^ (2 << index) for index, name in enumerate(names)}
        return self.compiled().evaluate_lanes(occurred) == 1

    # -- misc ------------------------------------------------------------------------

    def copy(self, *, name: Optional[str] = None) -> "FaultTree":
        """Return a structural copy of this tree (nodes are immutable and shared)."""
        clone = FaultTree(name or self.name, top_event=self._top_event)
        clone._events = dict(self._events)
        clone._gates = dict(self._gates)
        clone._compiled = self._compiled
        return clone

    def statistics(self) -> Dict[str, object]:
        """Summary statistics used by reports and the benchmark harness."""
        self.validate()
        gate_counts: Dict[str, int] = {"and": 0, "or": 0, "voting": 0}
        for gate in self._gates.values():
            gate_counts[gate.gate_type.value] += 1
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_gates": self.num_gates,
            "num_basic_events": self.num_events,
            "num_and_gates": gate_counts["and"],
            "num_or_gates": gate_counts["or"],
            "num_voting_gates": gate_counts["voting"],
            "depth": self.depth(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultTree(name={self.name!r}, events={self.num_events}, "
            f"gates={self.num_gates}, top={self._top_event!r})"
        )
