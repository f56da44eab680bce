"""SAT-solving substrate.

The MaxSAT algorithms of :mod:`repro.maxsat` are built on top of a complete
SAT solver with an *assumptions* interface and unsat-core extraction, exactly
the capabilities the off-the-shelf solvers used by MPMCS4FTA expose:
:class:`repro.sat.cdcl.CDCLSolver`, conflict-driven clause learning with
two-watched-literal propagation, VSIDS branching with phase saving, Luby
restarts, learned-clause deletion, and assumption-based incremental solving
with core extraction.  The test suite cross-checks it against a compact DPLL
oracle kept beside the tests.
"""

from repro.sat.types import SatResult, SatStatus
from repro.sat.cdcl import CDCLSolver

__all__ = ["CDCLSolver", "SatResult", "SatStatus"]
