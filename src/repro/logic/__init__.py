"""Boolean formula substrate.

This package provides the propositional-logic foundation used by the rest of the
library:

* :mod:`repro.logic.formula` — an immutable Boolean formula AST (variables,
  constants, negation, conjunction, disjunction and k-of-n threshold nodes)
  with structural helpers.
* :mod:`repro.logic.cnf` — the clause/literal model shared by the SAT and MaxSAT
  solvers.
* :mod:`repro.logic.tseitin` — Step 2 of the MPMCS pipeline: the AND, OR and
  k-of-n (sequential counter) clause generators over ``int`` literals, and
  the formula-level Tseitin encoder built on them.
* :mod:`repro.logic.dimacs` — DIMACS CNF and WCNF readers/writers for
  interoperability with external tools.
"""

from repro.logic.formula import (
    And,
    AtLeast,
    Const,
    FALSE,
    Formula,
    Not,
    Or,
    TRUE,
    Var,
)
from repro.logic.cnf import CNF, Clause, Literal
from repro.logic.tseitin import (
    TseitinEncoder,
    TseitinResult,
    and_clauses,
    at_least_clauses,
    or_clauses,
    tseitin_encode,
)

__all__ = [
    "And",
    "AtLeast",
    "CNF",
    "Clause",
    "Const",
    "FALSE",
    "Formula",
    "Literal",
    "Not",
    "Or",
    "TRUE",
    "TseitinEncoder",
    "TseitinResult",
    "Var",
    "and_clauses",
    "at_least_clauses",
    "or_clauses",
    "tseitin_encode",
]
