"""Cardinality constraint encodings.

The core-guided MaxSAT algorithm (RC2/OLL) relaxes unsatisfiable cores by
counting how many of the core's relaxation literals are true.  The counting is
done with a *totalizer* encoding [Bailleux & Boutillier 2003]: a balanced tree
of unary adders whose output literal ``o_j`` is forced true once at least
``j`` input literals are true.  Only that upward direction is encoded, so
assuming ``-o_j`` enforces "fewer than ``j`` inputs true", which is the only
question RC2 asks.  The tree is built incrementally [Martins et al. 2014]:
outputs exist only up to the highest bound requested so far, and a larger
bound extends every node in place.

The :class:`Totalizer` here emits its clauses into any object exposing an
``add_clause(list[int])`` method (a :class:`~repro.sat.cdcl.CDCLSolver` or a
:class:`~repro.logic.cnf.CNF`), and allocates auxiliary variables through a
caller-supplied ``new_var`` callable so it can be embedded in larger encodings.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.exceptions import SolverError
from repro.logic.cnf import Literal

__all__ = ["Totalizer"]


class _Node:
    """One unary adder: ``outputs`` counts the inputs below it, up to the bound."""

    __slots__ = ("size", "outputs", "left", "right")

    def __init__(self, literals: List[Literal]) -> None:
        self.size = len(literals)
        if self.size == 1:
            self.outputs = [literals[0]]
            self.left = self.right = None
        else:
            mid = self.size // 2
            self.outputs = []
            self.left = _Node(literals[:mid])
            self.right = _Node(literals[mid:])


class Totalizer:
    """Incremental, upward-only totalizer over a set of input literals.

    Parameters
    ----------
    inputs:
        The literals to count.
    new_var:
        Callable allocating a fresh variable index.
    add_clause:
        Callable receiving each generated clause (a list of literals).

    No clause is emitted until a bound is asked for.  :meth:`at_least`
    extends the tree to the bound it needs; :attr:`outputs` holds the output
    literals built so far, ``outputs[j-1]`` being forced true when at least
    ``j`` inputs are true.  An output may still be true with fewer true
    inputs, so only its negation carries meaning.
    """

    def __init__(
        self,
        inputs: Sequence[Literal],
        new_var: Callable[[], int],
        add_clause: Callable[[List[Literal]], None],
    ) -> None:
        if not inputs:
            raise SolverError("totalizer requires at least one input literal")
        self._new_var = new_var
        self._add_clause = add_clause
        self.inputs: List[Literal] = list(inputs)
        self._root = _Node(self.inputs)
        self.outputs: List[Literal] = self._root.outputs

    # -- construction -----------------------------------------------------------

    def _extend(self, node: _Node, bound: int) -> None:
        """Give ``node`` its outputs up to ``bound``, children first."""
        outputs = node.outputs
        built = len(outputs)
        top = min(bound, node.size)
        if top <= built:
            return
        self._extend(node.left, bound)
        self._extend(node.right, bound)
        outputs.extend(self._new_var() for _ in range(top - built))
        left, right = node.left.outputs, node.right.outputs
        add_clause = self._add_clause
        # If >= a of left and >= b of right then >= a+b total, for the sums
        # a+b this extension adds.
        for a in range(min(len(left), top) + 1):
            for b in range(max(built + 1 - a, 0), min(len(right), top - a) + 1):
                clause = [-left[a - 1]] if a else []
                if b:
                    clause.append(-right[b - 1])
                clause.append(outputs[a + b - 1])
                add_clause(clause)

    # -- queries ----------------------------------------------------------------

    def at_least(self, k: int) -> Literal:
        """Return the output literal forced true once ``k`` inputs are true."""
        if k <= 0:
            raise SolverError("at_least bound must be >= 1")
        if k > len(self.inputs):
            raise SolverError(
                f"at_least bound {k} exceeds the number of inputs {len(self.inputs)}"
            )
        self._extend(self._root, k)
        return self.outputs[k - 1]
