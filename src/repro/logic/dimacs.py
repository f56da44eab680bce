"""DIMACS CNF and WCNF (weighted partial MaxSAT) readers and writers.

These routines make the library interoperable with external SAT/MaxSAT
solvers and with the standard MaxSAT Evaluation benchmark format.  The WCNF
dialect implemented here is the classic ``p wcnf <vars> <clauses> <top>``
format in which hard clauses carry the ``top`` weight and soft clauses carry a
smaller positive integer weight.

Because the MPMCS pipeline works with real-valued weights (−log probabilities),
:func:`write_wcnf` accepts floats and scales them to integers with a
configurable precision, mirroring what MPMCS4FTA does before handing instances
to integer-weight MaxSAT solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from repro.exceptions import DimacsError
from repro.logic.cnf import CNF, Clause, Literal

__all__ = [
    "parse_dimacs",
    "write_dimacs",
    "parse_wcnf",
    "write_wcnf",
    "WcnfDocument",
]


@dataclass
class WcnfDocument:
    """In-memory representation of a parsed WCNF file."""

    num_vars: int
    top: int
    hard: List[Tuple[int, ...]]
    soft: List[Tuple[int, Tuple[int, ...]]]

    @property
    def num_clauses(self) -> int:
        return len(self.hard) + len(self.soft)


def parse_dimacs(text: str) -> CNF:
    """Parse a DIMACS CNF document into a :class:`CNF`.

    Comment lines (``c ...``) are ignored.  The header ``p cnf V C`` is
    validated but a mismatching clause count only raises when clauses exceed
    the declared number of variables.
    """
    cnf = CNF()
    declared_vars: Optional[int] = None
    declared_clauses: Optional[int] = None
    pending: List[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed problem line {line!r}")
            try:
                declared_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: non-integer header values") from exc
            cnf.ensure_num_vars(declared_vars)
            continue
        for token in line.split():
            try:
                lit = int(token)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: invalid literal {token!r}") from exc
            if lit == 0:
                cnf.add_clause(pending)
                pending = []
            else:
                pending.append(lit)

    if pending:
        # Tolerate a final clause not terminated by 0 (some generators do this).
        cnf.add_clause(pending)
    if declared_vars is not None and cnf.num_vars > declared_vars:
        raise DimacsError(
            f"clauses reference variable {cnf.num_vars} beyond declared count {declared_vars}"
        )
    if declared_clauses is not None and len(cnf) != declared_clauses:
        # The count mismatch is common in the wild; accept but do not fail.
        pass
    return cnf


def write_dimacs(cnf: CNF, *, comments: Optional[Sequence[str]] = None) -> str:
    """Serialise a :class:`CNF` to DIMACS text."""
    lines: List[str] = []
    for comment in comments or ():
        lines.append(f"c {comment}")
    for name, var in sorted(cnf.name_to_var.items(), key=lambda item: item[1]):
        lines.append(f"c var {var} = {name}")
    lines.append(f"p cnf {cnf.num_vars} {cnf.num_clauses}")
    for clause in cnf:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_wcnf(text: str) -> WcnfDocument:
    """Parse a classic-format WCNF document."""
    num_vars = 0
    top: Optional[int] = None
    hard: List[Tuple[int, ...]] = []
    soft: List[Tuple[int, Tuple[int, ...]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 5 or parts[1] != "wcnf":
                raise DimacsError(f"line {lineno}: malformed wcnf problem line {line!r}")
            try:
                num_vars = int(parts[2])
                top = int(parts[4])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: non-integer header values") from exc
            continue
        tokens = line.split()
        if top is None:
            raise DimacsError(f"line {lineno}: clause before problem line")
        try:
            weight = int(tokens[0])
            lits = tuple(int(tok) for tok in tokens[1:])
        except ValueError as exc:
            raise DimacsError(f"line {lineno}: invalid token in clause {line!r}") from exc
        if not lits or lits[-1] != 0:
            raise DimacsError(f"line {lineno}: clause not terminated by 0")
        lits = lits[:-1]
        if 0 in lits:
            raise DimacsError(f"line {lineno}: literal 0 inside a clause {line!r}")
        if weight <= 0:
            raise DimacsError(f"line {lineno}: clause weight must be positive")
        if weight >= top:
            hard.append(lits)
        else:
            soft.append((weight, lits))
        for lit in lits:
            num_vars = max(num_vars, abs(lit))

    if top is None:
        raise DimacsError("missing 'p wcnf' problem line")
    return WcnfDocument(num_vars=num_vars, top=top, hard=hard, soft=soft)


def write_wcnf(
    hard: Iterable[Sequence[Literal]],
    soft: Iterable[Tuple[float, Sequence[Literal]]],
    *,
    num_vars: int,
    precision: int = 10**6,
    comments: Optional[Sequence[str]] = None,
) -> str:
    """Serialise a weighted partial MaxSAT instance to classic WCNF text.

    Real-valued soft weights are scaled by ``precision`` and rounded to
    integers; the ``top`` (hard) weight is set to one more than the sum of all
    scaled soft weights, as required by the format.
    """
    if precision <= 0:
        raise DimacsError("precision must be a positive integer")
    hard_list = [tuple(cl) for cl in hard]
    soft_list: List[Tuple[int, Tuple[int, ...]]] = []
    for weight, clause in soft:
        if weight <= 0 or not math.isfinite(weight):
            raise DimacsError(f"soft clause weight must be positive and finite, got {weight}")
        scaled = max(1, int(round(weight * precision)))
        soft_list.append((scaled, tuple(clause)))

    top = sum(w for w, _ in soft_list) + 1
    lines: List[str] = []
    for comment in comments or ():
        lines.append(f"c {comment}")
    lines.append(f"p wcnf {num_vars} {len(hard_list) + len(soft_list)} {top}")
    for clause in hard_list:
        lines.append(f"{top} " + " ".join(str(lit) for lit in clause) + " 0")
    for weight, clause in soft_list:
        lines.append(f"{weight} " + " ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
