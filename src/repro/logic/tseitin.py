"""Tseitin transformation (Step 2 of the MPMCS pipeline).

The Tseitin transformation converts an arbitrary Boolean formula into an
*equisatisfiable* CNF in time and size polynomial in the formula size, by
introducing one auxiliary variable per internal gate and adding clauses that
constrain each auxiliary variable to be equivalent to the sub-formula it
names.  The paper uses exactly this construction to avoid the exponential
blow-up of a naive distributive CNF conversion.

The encoder supports all AST node types, including :class:`~repro.logic.formula.AtLeast`
(k-of-n voting gates), which are encoded with a sequential-counter (LTn)
cardinality construction rather than an exponential expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import FormulaError
from repro.logic.cnf import CNF, Literal
from repro.logic.formula import (
    And,
    AtLeast,
    Const,
    Formula,
    Implies,
    Not,
    Or,
    Var,
    Xor,
)

__all__ = [
    "CNFFragment",
    "TseitinEncoder",
    "TseitinResult",
    "encode_fragment",
    "tseitin_encode",
]


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
    (sharing the variable numbering), which the MaxSAT layer uses when it adds
    blocking clauses for top-k MPMCS enumeration.
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

    def _new_aux(self) -> int:
        var = self.cnf.new_var()
        self._aux_vars.append(var)
        return var

    def _encode_node(self, node: Formula) -> Literal:
        cached = self._cache.get(node)
        if cached is not None:
            return cached

        if isinstance(node, Var):
            lit: Literal = self.cnf.var_for(node.name)
        elif isinstance(node, Const):
            lit = self._encode_const(node)
        elif isinstance(node, Not):
            lit = -self._encode_node(node.operand)
        elif isinstance(node, And):
            lit = self._encode_and([self._encode_node(op) for op in node.operands])
        elif isinstance(node, Or):
            lit = self._encode_or([self._encode_node(op) for op in node.operands])
        elif isinstance(node, Implies):
            lit = self._encode_or(
                [-self._encode_node(node.antecedent), self._encode_node(node.consequent)]
            )
        elif isinstance(node, Xor):
            lit = self._encode_xor([self._encode_node(op) for op in node.operands])
        elif isinstance(node, AtLeast):
            lit = self._encode_atleast(node.k, [self._encode_node(op) for op in node.operands])
        else:  # pragma: no cover - defensive
            raise FormulaError(f"unsupported formula node {type(node).__name__}")

        self._cache[node] = lit
        return lit

    def _encode_const(self, node: Const) -> Literal:
        # Constants get a dedicated variable pinned to the constant value.
        aux = self._new_aux()
        self.cnf.add_clause([aux] if node.value else [-aux])
        return aux

    def _encode_and(self, literals: Sequence[Literal]) -> Literal:
        if len(literals) == 1:
            return literals[0]
        gate = self._new_aux()
        # gate -> li  for every operand
        for lit in literals:
            self.cnf.add_clause([-gate, lit])
        # (l1 & ... & ln) -> gate
        self.cnf.add_clause([gate] + [-lit for lit in literals])
        return gate

    def _encode_or(self, literals: Sequence[Literal]) -> Literal:
        if len(literals) == 1:
            return literals[0]
        gate = self._new_aux()
        # li -> gate for every operand
        for lit in literals:
            self.cnf.add_clause([-lit, gate])
        # gate -> (l1 | ... | ln)
        self.cnf.add_clause([-gate] + list(literals))
        return gate

    def _encode_xor(self, literals: Sequence[Literal]) -> Literal:
        # Chain binary XOR gates: out_i = out_{i-1} xor l_i.
        current = literals[0]
        for lit in literals[1:]:
            gate = self._new_aux()
            a, b = current, lit
            # gate <-> a xor b
            self.cnf.add_clause([-gate, a, b])
            self.cnf.add_clause([-gate, -a, -b])
            self.cnf.add_clause([gate, -a, b])
            self.cnf.add_clause([gate, a, -b])
            current = gate
        return current

    def _encode_atleast(self, k: int, literals: Sequence[Literal]) -> Literal:
        """Encode a gate literal equivalent to ``sum(literals) >= k``.

        Uses a sequential counter: ``s[i][j]`` is true when at least ``j`` of
        the first ``i`` literals are true.  The returned gate literal is made
        logically *equivalent* to ``s[n][k]`` so the encoding remains correct
        when the gate appears under negation (as it does for success-tree
        complements of voting gates).
        """
        n = len(literals)
        if k <= 0:
            aux = self._new_aux()
            self.cnf.add_clause([aux])
            return aux
        if k > n:
            aux = self._new_aux()
            self.cnf.add_clause([-aux])
            return aux
        if k == 1:
            return self._encode_or(list(literals))
        if k == n:
            return self._encode_and(list(literals))

        # counts[j-1] holds the literal "at least j of the literals seen so far".
        counts: List[Optional[Literal]] = [None] * k
        for lit in literals:
            new_counts: List[Optional[Literal]] = list(counts)
            for j in range(k - 1, -1, -1):
                # at least (j+1) true after including `lit` holds when either it
                # already held, or exactly j held before and `lit` is true.
                prev_atleast_jp1 = counts[j]
                prev_atleast_j = counts[j - 1] if j > 0 else None
                options: List[Literal] = []
                if prev_atleast_jp1 is not None:
                    options.append(prev_atleast_jp1)
                if j == 0:
                    options.append(lit)
                    new_counts[j] = self._encode_or(options) if len(options) > 1 else options[0]
                else:
                    if prev_atleast_j is not None:
                        options.append(self._encode_and([prev_atleast_j, lit]))
                    if not options:
                        new_counts[j] = None
                    elif len(options) == 1:
                        new_counts[j] = options[0]
                    else:
                        new_counts[j] = self._encode_or(options)
            counts = new_counts
        result = counts[k - 1]
        if result is None:  # pragma: no cover - unreachable given k <= n
            raise FormulaError("sequential counter failed to produce an output literal")
        return result


def tseitin_encode(
    formula: Formula,
    *,
    cnf: Optional[CNF] = None,
    assert_root: bool = True,
) -> TseitinResult:
    """Convenience wrapper: encode ``formula`` with a fresh :class:`TseitinEncoder`."""
    encoder = TseitinEncoder(cnf)
    return encoder.encode(formula, assert_root=assert_root)


@dataclass(frozen=True)
class CNFFragment:
    """A relocatable Tseitin encoding of one sub-formula.

    The fragment's clauses are expressed over *local* variables ``1..num_vars``
    where the first ``len(inputs)`` variables are the fragment's interface
    inputs (in the order of :attr:`inputs`) and every higher variable is an
    internal auxiliary.  :meth:`instantiate` stitches the fragment into a host
    clause list by substituting arbitrary host *literals* for the inputs and
    shifting the internals past a host variable offset, so one encoded
    fragment can be placed any number of times, at any variable offset.

    This is what lets the MPMCS encoder build every fault tree's CNF from a
    handful of gate fragments: one fragment per gate *shape* (type, threshold,
    arity), encoded once and instantiated at every gate of that shape (see
    :func:`repro.core.encoder.assemble_structure_cnf`).

    Attributes
    ----------
    inputs:
        Interface input names, bound to local variables ``1..len(inputs)``.
    num_vars:
        Total number of local variables (inputs plus internals).
    clauses:
        The fragment's clauses over local variables.
    output:
        The local literal representing the truth of the encoded sub-formula.
        It is *not* asserted — the host decides what to do with it (feed it to
        a parent fragment, or assert it as the root).
    """

    inputs: Tuple[str, ...]
    num_vars: int
    clauses: Tuple[Tuple[Literal, ...], ...]
    output: Literal

    @property
    def num_internal_vars(self) -> int:
        return self.num_vars - len(self.inputs)

    def instantiate(
        self,
        literals: Sequence[Literal],
        offset: int,
        clauses: List[Tuple[Literal, ...]],
    ) -> Literal:
        """Append this fragment's clauses to a host clause list; returns the
        host output literal.

        ``literals[i]`` is the host literal standing in for the ``i``-th
        input (it may itself be negated, e.g. another fragment's output).
        The internal variables become the host variables ``offset + 1``,
        ``offset + 2``, …, so the host reserves :attr:`num_internal_vars`
        variables past ``offset``.  When two inputs share a host literal, a
        clause keeps only its first occurrence, as a
        :class:`~repro.logic.cnf.Clause` would.
        """
        arity = len(self.inputs)
        if len(literals) != arity:
            raise FormulaError(
                f"fragment over {arity} inputs instantiated with {len(literals)} literals"
            )
        host = [0, *literals, *range(offset + 1, offset + self.num_vars - arity + 1)]
        # Index -v of the table wraps to -host[v], so one lookup maps either sign.
        remap = (host + [-literal for literal in reversed(host[1:])]).__getitem__
        if len(set(literals)) == arity:
            clauses.extend(tuple(map(remap, clause)) for clause in self.clauses)
        else:
            clauses.extend(tuple(dict.fromkeys(map(remap, clause))) for clause in self.clauses)
        return remap(self.output)


def encode_fragment(formula: Formula, inputs: Sequence[str]) -> CNFFragment:
    """Encode ``formula`` as a relocatable :class:`CNFFragment`.

    ``inputs`` declares the interface: every variable the formula mentions
    must appear in it (unused declared inputs are allowed — they simply bind
    local variables no clause constrains).  The formula's root literal is
    returned unasserted so the fragment composes under negation and inside
    larger encodings.
    """
    ordered = list(dict.fromkeys(inputs))
    cnf = CNF()
    for name in ordered:
        cnf.var_for(name)
    encoder = TseitinEncoder(cnf)
    result = encoder.encode(formula, assert_root=False)
    declared = set(ordered)
    for name in cnf.name_to_var:
        if name not in declared:
            raise FormulaError(
                f"formula mentions variable {name!r} outside the declared fragment "
                f"inputs {tuple(ordered)!r}"
            )
    return CNFFragment(
        inputs=tuple(ordered),
        num_vars=cnf.num_vars,
        clauses=tuple(tuple(clause.literals) for clause in cnf),
        output=result.root_literal,
    )
