"""Weighted Partial MaxSAT solving.

The MPMCS problem is encoded as a Weighted Partial MaxSAT instance (paper
Step 4) and solved here.  Because no external MaxSAT solver is available in the
reproduction environment, this package implements the solvers themselves on
top of the CDCL SAT engine of :mod:`repro.sat`:

* :class:`repro.maxsat.rc2.RC2Engine` — OLL/RC2-style core-guided search with
  weight-aware core relaxation (the algorithm used by the RC2 solver the
  original MPMCS4FTA tool can call through pysat).
* :class:`repro.maxsat.hitting_set.HittingSetEngine` — MaxHS-style implicit
  hitting set search (the approach of the paper's reference [5]), which RC2
  also hands a solve to once it outgrows its core budget.
* :class:`repro.maxsat.bruteforce.BruteForceEngine` — an exhaustive reference
  solver used by the test suite on small instances.
* :class:`repro.maxsat.incremental.IncrementalMaxSATSession` — the module
  route's one skeleton solver, cold and warm: implicit-hitting-set solving
  of one module's skeleton over one persistent CDCL solver, with
  weight-independent cached cores, and hitting sets certified as cut sets
  (from a pool of earlier optima or by evaluating the skeleton) without a
  SAT call, so a kept session turns a scenario sweep into weight-only
  re-solves; a ranking blocks each cut set it finds on a session of its own.

The paper's Step 5 races several solvers and keeps the first answer.  That
race is not reproduced: measured, it lost to the module route on 172 of 173
searched trees.  Step 5 runs on one engine at a time: the module route's
sessions, or RC2 (with its hand-over) on a whole-tree encoding.
"""

from repro.maxsat.instance import SoftClause, WPMaxSATInstance
from repro.maxsat.result import MaxSATResult, MaxSATStatus
from repro.maxsat.engine import MaxSATEngine
from repro.maxsat.rc2 import RC2Engine
from repro.maxsat.hitting_set import HittingSetEngine
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.maxsat.bruteforce import BruteForceEngine

__all__ = [
    "BruteForceEngine",
    "HittingSetEngine",
    "IncrementalMaxSATSession",
    "MaxSATEngine",
    "MaxSATResult",
    "MaxSATStatus",
    "RC2Engine",
    "SoftClause",
    "WPMaxSATInstance",
]
