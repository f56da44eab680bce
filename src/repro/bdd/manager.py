"""ROBDD manager.

A classical reduced ordered binary decision diagram implementation:

* nodes are integers; ``0`` and ``1`` are the terminal nodes;
* every internal node is a triple ``(level, low, high)`` stored in a unique
  table, so structurally equal functions share the same node (canonicity);
* Boolean operations are implemented through the ``ite`` (if-then-else)
  operator with a computed-table cache;
* fault trees are compiled bottom-up, gate by gate.

The manager is written for clarity rather than raw speed: it comfortably
handles the fault trees used in the benchmarks (thousands of nodes with a
sensible variable order) while remaining easy to audit.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import BDDError
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree

__all__ = ["BDDManager", "BDD"]

#: Terminal node identifiers.
FALSE_NODE = 0
TRUE_NODE = 1


class BDD:
    """A handle to a BDD function: a node within a :class:`BDDManager`."""

    __slots__ = ("manager", "node", "_flat")

    def __init__(self, manager: "BDDManager", node: int) -> None:
        self.manager = manager
        self.node = node
        #: The function's flat node arrays, filled by the first
        #: :func:`~repro.bdd.probability.flatten_bdd` call.
        self._flat = None

    # Boolean operator sugar -------------------------------------------------------

    def __and__(self, other: "BDD") -> "BDD":
        self._check(other)
        return BDD(self.manager, self.manager.apply_and(self.node, other.node))

    def __or__(self, other: "BDD") -> "BDD":
        self._check(other)
        return BDD(self.manager, self.manager.apply_or(self.node, other.node))

    def __invert__(self) -> "BDD":
        return BDD(self.manager, self.manager.negate(self.node))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BDD) and other.manager is self.manager and other.node == self.node
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def _check(self, other: "BDD") -> None:
        if other.manager is not self.manager:
            raise BDDError("cannot combine BDDs from different managers")

    # Queries ----------------------------------------------------------------------

    @property
    def is_true(self) -> bool:
        return self.node == TRUE_NODE

    @property
    def is_false(self) -> bool:
        return self.node == FALSE_NODE

    def size(self) -> int:
        """Number of distinct internal nodes reachable from this function."""
        return self.manager.size(self.node)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the function under a named variable assignment."""
        return self.manager.evaluate(self.node, assignment)


class BDDManager:
    """Unique-table based ROBDD manager with a fixed variable order."""

    def __init__(self, variable_order: Sequence[str]) -> None:
        if not variable_order:
            raise BDDError("variable order must contain at least one variable")
        if len(set(variable_order)) != len(variable_order):
            raise BDDError("variable order contains duplicates")
        # Compilation (`ite`, `negate`) recurses proportionally to the number
        # of variable levels; make sure deep orders do not hit CPython's
        # default recursion limit.
        required_limit = 4 * len(variable_order) + 1000
        if sys.getrecursionlimit() < required_limit:
            sys.setrecursionlimit(required_limit)
        self.order: Tuple[str, ...] = tuple(variable_order)
        self._level_of: Dict[str, int] = {name: i for i, name in enumerate(self.order)}

        # node id -> (level, low, high); ids 0 and 1 are terminals.
        self._nodes: List[Tuple[int, int, int]] = [(-1, -1, -1), (-1, -1, -1)]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._neg_cache: Dict[int, int] = {}

    # -- node construction ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total number of nodes ever created (including both terminals)."""
        return len(self._nodes)

    def level_of(self, name: str) -> int:
        try:
            return self._level_of[name]
        except KeyError as exc:
            raise BDDError(f"variable {name!r} is not part of this manager's order") from exc

    def var_at_level(self, level: int) -> str:
        return self.order[level]

    def _make_node(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def node_triple(self, node: int) -> Tuple[int, int, int]:
        """Return the ``(level, low, high)`` triple of an internal node."""
        if node in (FALSE_NODE, TRUE_NODE):
            raise BDDError("terminal nodes have no (level, low, high) triple")
        return self._nodes[node]

    def true(self) -> BDD:
        return BDD(self, TRUE_NODE)

    def false(self) -> BDD:
        return BDD(self, FALSE_NODE)

    def var(self, name: str) -> BDD:
        """The BDD of a single variable."""
        level = self.level_of(name)
        return BDD(self, self._make_node(level, FALSE_NODE, TRUE_NODE))

    # -- core operations ---------------------------------------------------------------

    def _level(self, node: int) -> int:
        if node in (FALSE_NODE, TRUE_NODE):
            return len(self.order)  # terminals sit below every variable level
        return self._nodes[node][0]

    def _cofactors(self, node: int, level: int) -> Tuple[int, int]:
        """Return (low, high) cofactors of ``node`` with respect to ``level``."""
        if node in (FALSE_NODE, TRUE_NODE):
            return node, node
        node_level, low, high = self._nodes[node]
        if node_level == level:
            return low, high
        return node, node

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: the function ``(f ∧ g) ∨ (¬f ∧ h)``."""
        # Terminal cases.
        if f == TRUE_NODE:
            return g
        if f == FALSE_NODE:
            return h
        if g == h:
            return g
        if g == TRUE_NODE and h == FALSE_NODE:
            return f

        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached

        level = min(self._level(f), self._level(g), self._level(h))
        f_low, f_high = self._cofactors(f, level)
        g_low, g_high = self._cofactors(g, level)
        h_low, h_high = self._cofactors(h, level)
        low = self.ite(f_low, g_low, h_low)
        high = self.ite(f_high, g_high, h_high)
        result = self._make_node(level, low, high)
        self._ite_cache[key] = result
        return result

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE_NODE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, TRUE_NODE, g)

    def negate(self, f: int) -> int:
        if f == TRUE_NODE:
            return FALSE_NODE
        if f == FALSE_NODE:
            return TRUE_NODE
        cached = self._neg_cache.get(f)
        if cached is not None:
            return cached
        level, low, high = self._nodes[f]
        result = self._make_node(level, self.negate(low), self.negate(high))
        self._neg_cache[f] = result
        self._neg_cache[result] = f
        return result

    # -- compilation --------------------------------------------------------------------

    def _compile_threshold(self, k: int, children: List[int]) -> int:
        """Compile "at least k of the children" over already-compiled child BDDs."""
        if k <= 0:
            return TRUE_NODE
        if k > len(children):
            return FALSE_NODE
        # counts[j] = BDD of "at least j+1 of the children processed so far".
        counts: List[int] = [FALSE_NODE] * k
        for child in children:
            new_counts = list(counts)
            for j in range(k - 1, -1, -1):
                at_least_j_before = counts[j - 1] if j > 0 else TRUE_NODE
                new_counts[j] = self.apply_or(counts[j], self.apply_and(child, at_least_j_before))
            counts = new_counts
        return counts[k - 1]

    def from_fault_tree(self, tree: FaultTree) -> BDD:
        """Compile a fault tree's structure function into a BDD."""
        tree.validate()
        compiled: Dict[str, int] = {}
        for name in tree.topological_order():
            if tree.is_event(name):
                compiled[name] = self.var(name).node
                continue
            gate = tree.gates[name]
            # Deepest top variable first, so each child lands above the
            # diagram folded so far: wide gates compile in linear time.
            children = sorted(
                (compiled[child] for child in gate.children), key=self._level, reverse=True
            )
            # An n-of-n vote is the AND and a 1-of-n vote the OR; the
            # threshold counter is far slower on both.
            if gate.gate_type is GateType.AND or gate.k == len(children):
                result = TRUE_NODE
                for child in children:
                    result = self.apply_and(result, child)
            elif gate.gate_type is GateType.OR or gate.k == 1:
                result = FALSE_NODE
                for child in children:
                    result = self.apply_or(result, child)
            else:
                result = self._compile_threshold(gate.k, children)
            compiled[name] = result
        return BDD(self, compiled[tree.top_event])

    # -- queries -------------------------------------------------------------------------

    def evaluate(self, node: int, assignment: Mapping[str, bool]) -> bool:
        current = node
        while current not in (FALSE_NODE, TRUE_NODE):
            level, low, high = self._nodes[current]
            current = high if assignment.get(self.order[level], False) else low
        return current == TRUE_NODE

    def size(self, node: int) -> int:
        """Number of internal nodes reachable from ``node``."""
        seen = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in (FALSE_NODE, TRUE_NODE) or current in seen:
                continue
            seen.add(current)
            _, low, high = self._nodes[current]
            stack.extend((low, high))
        return len(seen)
