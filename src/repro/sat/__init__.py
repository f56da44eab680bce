"""SAT-solving substrate.

The MaxSAT algorithms of :mod:`repro.maxsat` are built on top of a complete
SAT solver with an *assumptions* interface and unsat-core extraction, exactly
the capabilities the off-the-shelf solvers used by MPMCS4FTA expose.  Two
solvers are provided:

* :class:`repro.sat.cdcl.CDCLSolver` — the production solver: conflict-driven
  clause learning with two-watched-literal propagation, VSIDS branching with
  phase saving, Luby restarts, learned-clause deletion, and assumption-based
  incremental solving with core extraction.
* :class:`repro.sat.dpll.DPLLSolver` — a compact DPLL solver, the test
  suite's reference implementation for cross-checking the CDCL solver.
"""

from repro.sat.types import SatResult, SatStatus
from repro.sat.dpll import DPLLSolver
from repro.sat.cdcl import CDCLSolver

__all__ = ["CDCLSolver", "DPLLSolver", "SatResult", "SatStatus"]
