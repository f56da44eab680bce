"""Immutable Boolean formula abstract syntax tree.

The fault-tree layer compiles trees into formulas built from these nodes
(Section II of the paper: ``f(t)`` is the Boolean structure function of the
fault tree).  :mod:`repro.fta.formula` builds ``f(t)`` and its dual, the
success tree; :func:`repro.logic.tseitin.tseitin_encode` turns a formula into
an equisatisfiable CNF (the tests' oracle for the gate-by-gate MPMCS
encoding).

Design notes
------------
* Nodes are immutable and hashable, so formulas can be shared and memoised.
* ``And``/``Or`` are n-ary; binary convenience constructors exist via the
  ``&`` and ``|`` operators.
* ``AtLeast`` models k-of-n *voting gates* — the extension listed as future
  work in the paper and implemented here.
* Evaluation (`evaluate`) is defined for all node types so brute-force
  reference analyses and property-based tests can cross-check the solvers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.exceptions import FormulaError

__all__ = [
    "Formula",
    "Const",
    "TRUE",
    "FALSE",
    "Var",
    "Not",
    "And",
    "Or",
    "AtLeast",
]


class Formula:
    """Base class of every Boolean formula node.

    Subclasses are immutable; all structural state is assigned in ``__init__``
    and never mutated afterwards.  Equality and hashing are structural.
    """

    __slots__ = ("_hash",)

    # -- operator sugar -----------------------------------------------------

    def __and__(self, other: "Formula") -> "And":
        return And((self, _check_formula(other)))

    def __or__(self, other: "Formula") -> "Or":
        return Or((self, _check_formula(other)))

    def __invert__(self) -> "Formula":
        return Not(self)

    # -- core API -----------------------------------------------------------

    def children(self) -> Tuple["Formula", ...]:
        """Return the direct sub-formulas of this node."""
        return ()

    def variables(self) -> FrozenSet[str]:
        """Return the set of variable names appearing in the formula."""
        names: set[str] = set()
        for node in self.iter_nodes():
            if isinstance(node, Var):
                names.add(node.name)
        return frozenset(names)

    def iter_nodes(self) -> Iterator["Formula"]:
        """Yield every node of the AST in depth-first pre-order."""
        stack: list[Formula] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def size(self) -> int:
        """Return the number of AST nodes (a proxy for formula size)."""
        return sum(1 for _ in self.iter_nodes())

    def depth(self) -> int:
        """Return the height of the AST (a leaf has depth 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the formula under a total assignment of its variables.

        Parameters
        ----------
        assignment:
            Mapping from variable name to truth value.  Every variable of the
            formula must be present.

        Raises
        ------
        FormulaError
            If a variable is missing from ``assignment``.
        """
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "Formula"]) -> "Formula":
        """Return a copy of the formula with variables replaced by formulas."""
        raise NotImplementedError

    # -- dunder helpers -----------------------------------------------------

    def _key(self) -> Tuple[object, ...]:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return NotImplemented if not isinstance(other, Formula) else False
        return self._key() == other._key()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((type(self).__name__,) + self._key())
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.to_infix()

    def to_infix(self) -> str:
        """Render the formula using infix operators (for debugging and docs)."""
        raise NotImplementedError


def _check_formula(value: object) -> Formula:
    if not isinstance(value, Formula):
        raise FormulaError(f"expected a Formula, got {type(value).__name__}")
    return value


class Const(Formula):
    """A Boolean constant (``TRUE`` or ``FALSE``)."""

    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        object.__setattr__(self, "value", bool(value))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Const is immutable")

    def _key(self) -> Tuple[object, ...]:
        return (self.value,)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.value

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return self

    def to_infix(self) -> str:
        return "true" if self.value else "false"


TRUE = Const(True)
FALSE = Const(False)


class Var(Formula):
    """A propositional variable identified by name.

    In the fault-tree context each basic event ``x_i`` becomes one variable.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise FormulaError("variable name must be a non-empty string")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Var is immutable")

    def _key(self) -> Tuple[object, ...]:
        return (self.name,)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        try:
            return bool(assignment[self.name])
        except KeyError as exc:
            raise FormulaError(f"missing assignment for variable {self.name!r}") from exc

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return mapping.get(self.name, self)

    def to_infix(self) -> str:
        return self.name


class Not(Formula):
    """Logical negation of a sub-formula."""

    __slots__ = ("operand",)

    def __init__(self, operand: Formula) -> None:
        object.__setattr__(self, "operand", _check_formula(operand))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Not is immutable")

    def children(self) -> Tuple[Formula, ...]:
        return (self.operand,)

    def _key(self) -> Tuple[object, ...]:
        return (self.operand,)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return not self.operand.evaluate(assignment)

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return Not(self.operand.substitute(mapping))

    def to_infix(self) -> str:
        return f"~{_paren(self.operand)}"


class _NaryFormula(Formula):
    """Shared implementation for n-ary operators (And, Or)."""

    __slots__ = ("operands",)

    def __init__(self, operands: Iterable[Formula]) -> None:
        ops = tuple(_check_formula(op) for op in operands)
        if not ops:
            raise FormulaError(f"{type(self).__name__} requires at least one operand")
        object.__setattr__(self, "operands", ops)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    def children(self) -> Tuple[Formula, ...]:
        return self.operands

    def _key(self) -> Tuple[object, ...]:
        return self.operands


class And(_NaryFormula):
    """N-ary conjunction.  Models fault-tree AND gates."""

    __slots__ = ()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return all(op.evaluate(assignment) for op in self.operands)

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return And(tuple(op.substitute(mapping) for op in self.operands))

    def to_infix(self) -> str:
        return "(" + " & ".join(op.to_infix() for op in self.operands) + ")"


class Or(_NaryFormula):
    """N-ary disjunction.  Models fault-tree OR gates."""

    __slots__ = ()

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return any(op.evaluate(assignment) for op in self.operands)

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return Or(tuple(op.substitute(mapping) for op in self.operands))

    def to_infix(self) -> str:
        return "(" + " | ".join(op.to_infix() for op in self.operands) + ")"


class AtLeast(Formula):
    """Threshold node: true when at least ``k`` of the operands are true.

    This models fault-tree *voting gates* (VOT / k-of-n), the gate type the
    paper lists as a planned extension.  ``AtLeast(1, ops)`` is equivalent to
    ``Or(ops)`` and ``AtLeast(len(ops), ops)`` to ``And(ops)``.
    """

    __slots__ = ("k", "operands")

    def __init__(self, k: int, operands: Iterable[Formula]) -> None:
        ops = tuple(_check_formula(op) for op in operands)
        if not ops:
            raise FormulaError("AtLeast requires at least one operand")
        if not isinstance(k, int):
            raise FormulaError("AtLeast threshold k must be an integer")
        if k < 0 or k > len(ops):
            raise FormulaError(
                f"AtLeast threshold k={k} must lie in [0, {len(ops)}] for {len(ops)} operands"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "operands", ops)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("AtLeast is immutable")

    def children(self) -> Tuple[Formula, ...]:
        return self.operands

    def _key(self) -> Tuple[object, ...]:
        return (self.k,) + self.operands

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return sum(1 for op in self.operands if op.evaluate(assignment)) >= self.k

    def substitute(self, mapping: Mapping[str, Formula]) -> Formula:
        return AtLeast(self.k, tuple(op.substitute(mapping) for op in self.operands))

    def to_infix(self) -> str:
        inner = ", ".join(op.to_infix() for op in self.operands)
        return f"atleast({self.k}; {inner})"


def _paren(node: Formula) -> str:
    text = node.to_infix()
    if isinstance(node, (Var, Const)) or text.startswith("("):
        return text
    return f"({text})"


def conjoin(operands: Sequence[Formula]) -> Formula:
    """Build a conjunction, collapsing the trivial 0- and 1-operand cases."""
    if not operands:
        return TRUE
    if len(operands) == 1:
        return operands[0]
    return And(tuple(operands))


def disjoin(operands: Sequence[Formula]) -> Formula:
    """Build a disjunction, collapsing the trivial 0- and 1-operand cases."""
    if not operands:
        return FALSE
    if len(operands) == 1:
        return operands[0]
    return Or(tuple(operands))


def variables_in_order(formula: Formula) -> Tuple[str, ...]:
    """Return formula variables in first-occurrence (depth-first) order.

    Useful for deterministic variable numbering when building CNF instances and
    BDD variable orders.
    """
    seen: Dict[str, None] = {}
    for node in formula.iter_nodes():
        if isinstance(node, Var) and node.name not in seen:
            seen[node.name] = None
    return tuple(seen.keys())
