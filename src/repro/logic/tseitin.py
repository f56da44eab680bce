"""Tseitin transformation (Step 2 of the MPMCS pipeline).

The Tseitin transformation converts an arbitrary Boolean formula into an
*equisatisfiable* CNF in time and size polynomial in the formula size, by
introducing one auxiliary variable per internal gate and adding clauses that
constrain each auxiliary variable to be equivalent to the sub-formula it
names.  The paper uses exactly this construction to avoid the exponential
blow-up of a naive distributive CNF conversion.

A fault tree needs three gate definitions, each a clause generator over
``int`` literals: :func:`and_clauses`, :func:`or_clauses` and the
sequential counter :func:`at_least_clauses` (k-of-n voting gates).  The
MPMCS encoder (:func:`repro.core.encoder.assemble_structure_cnf`) calls them
gate by gate on its children's literals; :class:`TseitinEncoder` calls them
on the literals of a formula's operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import FormulaError
from repro.logic.cnf import CNF, Literal
from repro.logic.formula import And, AtLeast, Const, Formula, Not, Or, Var

__all__ = [
    "TseitinEncoder",
    "TseitinResult",
    "and_clauses",
    "at_least_clauses",
    "or_clauses",
    "tseitin_encode",
]

#: A clause list the generators append to.
Clauses = List[Tuple[Literal, ...]]


def _head(gate: Literal, literals: Sequence[Literal]) -> Tuple[Literal, ...]:
    """The clause ``(gate ∨ l1 ∨ … ∨ ln)``, a repeated literal kept once."""
    if len(set(literals)) == len(literals):
        return (gate, *literals)
    return tuple(dict.fromkeys((gate, *literals)))


def and_clauses(
    literals: Sequence[Literal], num_vars: int, clauses: Clauses
) -> Tuple[Literal, int]:
    """Define the next variable ``g = num_vars + 1`` as the conjunction of ``literals``.

    Appends ``(¬g ∨ l)`` for each literal, then ``(g ∨ ¬l1 ∨ … ∨ ¬ln)``, and
    returns ``(g, num_vars + 1)``.  A single literal is its own conjunction:
    it comes back with no clause and no new variable.
    """
    if len(literals) == 1:
        return literals[0], num_vars
    gate = num_vars + 1
    clauses.extend((-gate, literal) for literal in literals)
    clauses.append(_head(gate, [-literal for literal in literals]))
    return gate, gate


def or_clauses(
    literals: Sequence[Literal], num_vars: int, clauses: Clauses
) -> Tuple[Literal, int]:
    """Define the next variable ``g = num_vars + 1`` as the disjunction of ``literals``.

    Appends ``(¬l ∨ g)`` for each literal, then ``(¬g ∨ l1 ∨ … ∨ ln)``, and
    returns ``(g, num_vars + 1)``; a single literal comes back as is.
    """
    if len(literals) == 1:
        return literals[0], num_vars
    gate = num_vars + 1
    clauses.extend((-literal, gate) for literal in literals)
    clauses.append(_head(-gate, literals))
    return gate, gate


def at_least_clauses(
    k: int, literals: Sequence[Literal], num_vars: int, clauses: Clauses
) -> Tuple[Literal, int]:
    """Define a literal equivalent to ``sum(literals) >= k`` (a sequential counter).

    ``s[i][j]`` — "at least ``j`` of the first ``i`` literals" — is the
    disjunction of ``s[i-1][j]`` and the conjunction of ``s[i-1][j-1]`` with
    the ``i``-th literal, each defined by :func:`or_clauses` and
    :func:`and_clauses`; the result is ``s[n][k]``.  Every definition is an
    equivalence, so the literal may be used under negation.  Returns the
    literal and the new variable count; ``k = 1`` and ``k = n`` define a plain
    disjunction and conjunction, and a constant threshold a pinned variable.
    """
    n = len(literals)
    if k <= 0 or k > n:
        num_vars += 1
        clauses.append((num_vars,) if k <= 0 else (-num_vars,))
        return num_vars, num_vars
    if k == 1:
        return or_clauses(literals, num_vars, clauses)
    if k == n:
        return and_clauses(literals, num_vars, clauses)
    # counts[j] is the literal "at least j + 1 of the literals seen so far".
    counts: List[Optional[Literal]] = [None] * k
    for literal in literals:
        new_counts = list(counts)
        for j in range(k - 1, -1, -1):
            options = [] if counts[j] is None else [counts[j]]
            if j == 0:
                options.append(literal)
            elif counts[j - 1] is not None:
                both, num_vars = and_clauses([counts[j - 1], literal], num_vars, clauses)
                options.append(both)
            if options:
                new_counts[j], num_vars = or_clauses(options, num_vars, clauses)
        counts = new_counts
    result = counts[k - 1]
    assert result is not None  # k <= n literals reach every count
    return result, num_vars


@dataclass
class TseitinResult:
    """Output of a Tseitin encoding.

    Attributes
    ----------
    cnf:
        The equisatisfiable CNF.  Problem variables keep their names via the
        CNF name table; auxiliary gate variables are anonymous.
    root_literal:
        The literal representing the truth of the whole input formula.  A unit
        clause asserting this literal is already present when ``assert_root``
        was requested (the default), so satisfying assignments of ``cnf``
        correspond exactly to satisfying assignments of the input formula.
    var_map:
        Mapping from problem-variable name to CNF variable index.
    aux_vars:
        Auxiliary (gate) variable indices introduced by the encoding.
    """

    cnf: CNF
    root_literal: Literal
    var_map: Dict[str, int]
    aux_vars: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def num_aux_vars(self) -> int:
        return len(self.aux_vars)


class TseitinEncoder:
    """Stateful Tseitin encoder.

    A single encoder instance can encode several formulas into the same CNF
    (sharing the variable numbering).
    """

    def __init__(self, cnf: Optional[CNF] = None) -> None:
        self.cnf = cnf if cnf is not None else CNF()
        self._aux_vars: List[int] = []
        # Structural cache so shared sub-formulas are encoded once.
        self._cache: Dict[Formula, Literal] = {}

    # -- public API -----------------------------------------------------------

    def encode(self, formula: Formula, *, assert_root: bool = True) -> TseitinResult:
        """Encode ``formula``; optionally assert its root literal as a unit clause."""
        root = self._encode_node(formula)
        if assert_root:
            self.cnf.add_clause([root])
        return TseitinResult(
            cnf=self.cnf,
            root_literal=root,
            var_map=dict(self.cnf.name_to_var),
            aux_vars=tuple(self._aux_vars),
        )

    def literal_for(self, name: str) -> Literal:
        """Return the positive literal of the problem variable called ``name``."""
        return self.cnf.var_for(name)

    # -- node encoders ---------------------------------------------------------

    def _encode_node(self, node: Formula) -> Literal:
        cached = self._cache.get(node)
        if cached is not None:
            return cached

        if isinstance(node, Var):
            lit: Literal = self.cnf.var_for(node.name)
        elif isinstance(node, Const):
            lit = self._define(at_least_clauses, 0 if node.value else 1, [])
        elif isinstance(node, Not):
            lit = -self._encode_node(node.operand)
        elif isinstance(node, And):
            lit = self._define(and_clauses, self._operands(node))
        elif isinstance(node, Or):
            lit = self._define(or_clauses, self._operands(node))
        elif isinstance(node, AtLeast):
            lit = self._define(at_least_clauses, node.k, self._operands(node))
        else:  # pragma: no cover - defensive
            raise FormulaError(f"unsupported formula node {type(node).__name__}")

        self._cache[node] = lit
        return lit

    def _operands(self, node: Formula) -> List[Literal]:
        return [self._encode_node(operand) for operand in node.children()]

    def _define(self, generator: Callable[..., Tuple[Literal, int]], *args: object) -> Literal:
        """Run a clause generator past the CNF's variables and add its output."""
        before = self.cnf.num_vars
        clauses: Clauses = []
        literal, num_vars = generator(*args, before, clauses)
        self.cnf.ensure_num_vars(num_vars)
        self._aux_vars.extend(range(before + 1, num_vars + 1))
        self.cnf.extend(clauses)
        return literal


def tseitin_encode(
    formula: Formula,
    *,
    cnf: Optional[CNF] = None,
    assert_root: bool = True,
) -> TseitinResult:
    """Convenience wrapper: encode ``formula`` with a fresh :class:`TseitinEncoder`."""
    encoder = TseitinEncoder(cnf)
    return encoder.encode(formula, assert_root=assert_root)
