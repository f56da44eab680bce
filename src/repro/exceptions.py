"""Exception hierarchy shared across the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so downstream
users can catch a single exception type at API boundaries.  More specific subclasses
exist for each subsystem (formula handling, SAT/MaxSAT solving, fault-tree modelling,
parsing, and the analysis pipeline) so callers can discriminate failure modes without
string-matching messages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class FormulaError(ReproError):
    """Raised when a Boolean formula is malformed or an operation is unsupported."""


class CNFError(ReproError):
    """Raised when CNF clauses or literals are malformed."""


class DimacsError(ReproError):
    """Raised when a DIMACS CNF/WCNF document cannot be parsed or written."""


class SolverError(ReproError):
    """Raised when a SAT or MaxSAT solver is misused or reaches an invalid state."""


class BudgetExceededError(SolverError):
    """Raised when a search exceeds one of its safety budgets: a
    :class:`~repro.sat.cdcl.CDCLSolver`'s ``max_conflicts``, the hitting set
    search's node budget, or the warm session's round budget
    (:data:`~repro.maxsat.hitting_set.MAX_ROUNDS`)."""


class SolverInterrupted(SolverError):
    """Raised when a cooperative stop signal interrupts a running solver.

    A cancelled analysis (a service job's cancel or timeout) sets a stop
    flag; the running engine or session observes it at its next restart
    boundary or iteration and unwinds by raising this exception.
    """


class FaultTreeError(ReproError):
    """Raised when a fault tree is structurally invalid."""


class ProbabilityError(FaultTreeError):
    """Raised when an event probability lies outside the open interval (0, 1]."""


class ParseError(ReproError):
    """Raised when an external fault-tree document (Galileo, JSON, ...) is invalid."""


class AnalysisError(ReproError):
    """Raised when an analysis (MPMCS, MOCUS, BDD, ...) cannot be completed."""


class NoCutSetError(AnalysisError):
    """Raised when a fault tree, or a blocked enumeration of it, has no cut set left."""


class BDDError(ReproError):
    """Raised on invalid operations against the ROBDD manager."""


class ConfigurationError(ReproError):
    """Raised when pipeline or solver configuration values are invalid."""


class MissingDependencyError(ReproError):
    """Raised when an optional dependency (numpy) is needed but unavailable.

    The core library is pure stdlib; numerical extras (uncertainty
    propagation, CTMC transient analysis, dynamic fault-tree simulation, the
    vectorised kernel tier) require numpy, installed via the ``numerics``
    extra: ``pip install mpmcs4fta[numerics]``.
    """
