"""Conflict-driven clause learning (CDCL) SAT solver.

This is the production SAT engine underneath every MaxSAT algorithm in
:mod:`repro.maxsat`.  It implements the classical MiniSat-style architecture:

* two-watched-literal unit propagation;
* 1-UIP conflict analysis with clause learning and non-chronological
  backjumping;
* VSIDS variable activities with phase saving;
* Luby-sequence restarts;
* activity-based deletion of learned clauses;
* incremental solving under *assumptions* with extraction of a set of failed
  assumptions (unsat core), which the MaxSAT algorithms (OLL/RC2 and the
  implicit hitting set engine) rely on.

Clauses live in one arena and are referred to by number, as MiniSat refers
to clauses by ``CRef`` offsets into its ``ClauseAllocator`` region (Eén &
Sörensson, SAT 2003): ``_lits[ci]`` is clause ``ci``'s literal list, the
learnt flag and activity of clause ``ci`` sit at index ``ci`` of the
parallel ``_learnt`` and ``_clause_activity`` lists, and watch lists and
``_reasons`` hold clause numbers.  Deleting learned clauses frees their
slots, which later learned clauses reuse.  A copy of a solver is therefore
a slice of each list, with no object per clause to rebuild.

The solver is deliberately self-contained (pure Python, no third-party
dependencies), so the library installs and runs anywhere the standard
library does, with no MaxSAT or SAT package to provide.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import BudgetExceededError, SolverError, SolverInterrupted
from repro.kernels.bitset import make_assign_buffer
from repro.logic.cnf import Literal
from repro.observability import trace as _trace
from repro.observability.metrics import get_metrics
from repro.sat.types import BaseSatSolver, SatResult, SatStatus

__all__ = ["CDCLSolver"]

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


class CDCLSolver(BaseSatSolver):
    """MiniSat-style CDCL solver with assumptions and core extraction.

    Parameters
    ----------
    restart_base:
        Conflict budget of the first restart interval; subsequent intervals
        follow the Luby sequence scaled by this base.
    var_decay / clause_decay:
        Exponential decay factors for VSIDS variable and clause activities.
    max_learnt_factor:
        The learned clause database is reduced when it exceeds
        ``max_learnt_factor`` times the number of original clauses.
    max_conflicts:
        Optional global conflict budget; when exceeded, :class:`BudgetExceededError`
        is raised.
    stop_check:
        Optional zero-argument callable polled at every restart boundary; when
        it returns true the solver raises :class:`SolverInterrupted`.  This is
        the cooperative-cancellation hook of a cancelled analysis.
    """

    def __init__(
        self,
        *,
        restart_base: int = 100,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        max_learnt_factor: float = 2.0,
        max_conflicts: Optional[int] = None,
        default_phase: bool = False,
        stop_check: Optional[callable] = None,
    ) -> None:
        if not 0.0 < var_decay <= 1.0 or not 0.0 < clause_decay <= 1.0:
            raise SolverError("decay factors must lie in (0, 1]")
        if restart_base <= 0:
            raise SolverError("restart_base must be positive")

        # The clause arena, indexed by clause number.  A freed slot holds an
        # empty literal list until a learned clause reuses it.
        self._lits: List[List[int]] = []
        self._learnt: List[bool] = []
        self._clause_activity: List[float] = []
        self._free: List[int] = []
        # Live learned clauses, in the order reduction sorts them from.
        self._learnts: List[int] = []
        self._watches: Dict[int, List[int]] = {}

        self._num_vars = 0
        # Contiguous signed-byte buffer (repro.kernels.bitset); indexed by
        # var, slot 0 unused.
        self._assigns = make_assign_buffer([_UNASSIGNED])
        self._levels: List[int] = [0]
        self._reasons: List[Optional[int]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [default_phase]
        self._seen: List[bool] = [False]

        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._propagation_head = 0

        self._var_inc = 1.0
        self._var_decay = var_decay
        self._clause_inc = 1.0
        self._clause_decay = clause_decay
        self._restart_base = restart_base
        self._max_learnt_factor = max_learnt_factor
        self._max_conflicts = max_conflicts
        self._default_phase = default_phase
        self.stop_check = stop_check

        self._conflicts = 0
        self._decisions = 0
        self._propagations = 0

        self._ok = True  # becomes False once the clause database is trivially UNSAT

    # ------------------------------------------------------------------ setup

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def conflicts(self) -> int:
        return self._conflicts

    @property
    def num_clauses(self) -> int:
        """Number of problem (non-learnt) clauses currently attached."""
        return len(self._lits) - len(self._learnts) - len(self._free)

    @property
    def num_learnts(self) -> int:
        """Number of learned clauses currently retained.

        Exposed so incremental users (and tests) can observe that knowledge
        acquired in one :meth:`solve` call survives into the next.
        """
        return len(self._learnts)

    def new_var(self) -> int:
        """Allocate (and return) a fresh variable index."""
        self._num_vars += 1
        self._assigns.append(_UNASSIGNED)
        self._levels.append(0)
        self._reasons.append(None)
        self._activity.append(0.0)
        self._phase.append(self._default_phase)
        self._seen.append(False)
        return self._num_vars

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    def add_clause(self, literals: Sequence[Literal]) -> None:
        """Add a problem clause.  Must be called at decision level 0.

        Literals are read in order.  A ``0``, a ``bool`` or a non-``int``
        raises :class:`SolverError`, and a literal whose complement was read
        makes the clause a tautology, which is dropped.  Whichever way the
        call ends, the variables of the literals read so far are reserved.
        """
        if self._trail_lim:
            raise SolverError("clauses can only be added at decision level 0")
        seen: Set[int] = set()
        clause_lits: List[int] = []
        top = 0
        for lit in literals:
            if type(lit) is not int or not lit:
                if lit == 0 or not isinstance(lit, int) or isinstance(lit, bool):
                    self._ensure_var(top)
                    raise SolverError(f"invalid literal {lit!r}")
                lit = int(lit)
            if -lit in seen:
                self._ensure_var(top)
                return  # tautology, trivially satisfied
            if lit in seen:
                continue
            seen.add(lit)
            clause_lits.append(lit)
            var = lit if lit > 0 else -lit
            if var > top:
                top = var
        self._ensure_var(top)

        if not self._ok:
            return
        if self._trail:
            # Drop satisfied clauses and remove falsified literals.  At
            # decision level 0 every assigned variable is a level-0 one.
            assigns = self._assigns
            filtered: List[int] = []
            for lit in clause_lits:
                value = assigns[lit] if lit > 0 else -assigns[-lit]
                if value == _TRUE:
                    return
                if value == _UNASSIGNED:
                    filtered.append(lit)
            clause_lits = filtered

        if not clause_lits:
            self._ok = False
            return
        if len(clause_lits) == 1:
            if not self._enqueue(clause_lits[0], None):
                self._ok = False
            else:
                conflict = self._propagate()
                if conflict is not None:
                    self._ok = False
            return

        clause = len(self._lits)
        self._lits.append(clause_lits)
        self._learnt.append(False)
        self._clause_activity.append(0.0)
        self._attach(clause)

    def add_clauses(self, clauses: Iterable[Sequence[Literal]]) -> None:
        """Add several problem clauses between :meth:`solve` calls.

        This is the incremental interface MiniSat-style workflows rely on:
        every :meth:`solve` returns with the trail cancelled back to decision
        level 0, so new clauses can be added at any point between solves and
        the solver keeps *all* accumulated state — learned clauses, VSIDS
        variable activities and saved phases — instead of starting cold.
        Clauses must be logically compatible with reusing learned clauses,
        i.e. they only ever *strengthen* the formula (which is all CDCL
        requires: learned clauses are consequences of the clause database and
        remain consequences of any superset).
        """
        for clause in clauses:
            self.add_clause(clause)

    def copy(
        self,
        *,
        max_conflicts: Optional[int] = None,
        stop_check: Optional[callable] = None,
    ) -> "CDCLSolver":
        """An independent solver in this one's state, under its own conflict
        budget and stop hook.  Must be called at decision level 0.

        Solving or adding clauses on either solver afterwards leaves the
        other as it was: every mutable array is sliced, and so is each
        clause's literal list, since propagation swaps watched literals in
        place.  Clause numbers are kept, so the sliced watch lists and
        reasons refer to the copied clauses in the same order, and the copy
        searches exactly as this solver would.  The copy is built through
        ``__init__`` and then given this solver's state, so its attributes
        are laid out as every other solver's are.
        """
        if self._trail_lim:
            raise SolverError("a solver can only be copied at decision level 0")
        clone = CDCLSolver(
            restart_base=self._restart_base,
            var_decay=self._var_decay,
            clause_decay=self._clause_decay,
            max_learnt_factor=self._max_learnt_factor,
            max_conflicts=max_conflicts,
            default_phase=self._default_phase,
            stop_check=stop_check,
        )
        clone._lits = [lits[:] for lits in self._lits]
        clone._learnt = self._learnt[:]
        clone._clause_activity = self._clause_activity[:]
        clone._free = self._free[:]
        clone._learnts = self._learnts[:]
        clone._watches = {lit: watchers[:] for lit, watchers in self._watches.items()}
        clone._reasons = self._reasons[:]
        clone._num_vars = self._num_vars
        clone._assigns = self._assigns[:]
        clone._levels = self._levels[:]
        clone._activity = self._activity[:]
        clone._phase = self._phase[:]
        clone._seen = self._seen[:]
        clone._trail = self._trail[:]
        clone._propagation_head = self._propagation_head
        clone._var_inc = self._var_inc
        clone._clause_inc = self._clause_inc
        clone._conflicts = self._conflicts
        clone._decisions = self._decisions
        clone._propagations = self._propagations
        clone._ok = self._ok
        return clone

    # -------------------------------------------------------------- main solve

    def solve(self, assumptions: Iterable[Literal] = ()) -> SatResult:
        """Solve the current clause database under ``assumptions``."""
        assumption_list = [lit if type(lit) is int else int(lit) for lit in assumptions]
        top = 0
        for lit in assumption_list:
            var = lit if lit > 0 else -lit
            if not var:
                self._ensure_var(top)
                raise SolverError("assumption literal cannot be 0")
            if var > top:
                top = var
        self._ensure_var(top)

        self._decisions = 0
        self._propagations = 0
        start_conflicts = self._conflicts

        if not self._ok:
            return SatResult(status=SatStatus.UNSAT, core=frozenset())

        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return SatResult(status=SatStatus.UNSAT, core=frozenset())

        restart_index = 0
        while True:
            if self.stop_check is not None and self.stop_check():
                self._cancel_until(0)
                raise SolverInterrupted("solver stopped by cooperative cancellation")
            budget = self._restart_base * _luby(restart_index)
            restart_index += 1
            result = self._search(budget, assumption_list)
            if result is not None:
                result.conflicts = self._conflicts - start_conflicts
                result.decisions = self._decisions
                result.propagations = self._propagations
                self._cancel_until(0)
                # One registry/tracer touch per solve — never inside the
                # propagation or conflict loops.
                registry = get_metrics()
                registry.inc("repro_sat_conflicts_total", result.conflicts)
                registry.inc("repro_sat_restarts_total", restart_index - 1)
                _trace.add_counter("sat_conflicts", result.conflicts)
                _trace.add_counter("sat_restarts", restart_index - 1)
                return result
            # budget exhausted -> restart
            self._cancel_until(0)
            if self._max_conflicts is not None and self._conflicts >= self._max_conflicts:
                self._cancel_until(0)
                raise BudgetExceededError(
                    f"conflict budget of {self._max_conflicts} exceeded"
                )

    # ----------------------------------------------------------------- search

    def _search(self, conflict_budget: int, assumptions: List[int]) -> Optional[SatResult]:
        """Search until a model, a core, or ``conflict_budget`` conflicts.

        Each round propagates to a fixpoint, deciding the pending assumptions
        on the way (:meth:`_propagate`).  Then it learns from the conflict it
        reached, reduces the learned clauses when they outgrow their budget,
        and either reports the assumption found false or makes one VSIDS
        decision.  Assumption levels come first and stay in step with the
        assumption list: level ``i`` decides ``assumptions[i - 1]``.
        """
        local_conflicts = 0
        while True:
            conflict = self._propagate(assumptions)
            if conflict is not None:
                self._conflicts += 1
                local_conflicts += 1
                if self._decision_level() == 0:
                    self._ok = False
                    return SatResult(status=SatStatus.UNSAT, core=frozenset())
                if assumptions and self._decision_level() <= len(assumptions):
                    core = self._analyze_final(self._lits[conflict], assumptions)
                    return SatResult(status=SatStatus.UNSAT, core=core)
                learnt, backjump_level = self._analyze(conflict)
                self._cancel_until(backjump_level)
                self._record_learnt(learnt)
                self._decay_activities()
                if local_conflicts >= conflict_budget:
                    return None
                continue

            if self._learnts_over_budget():
                self._reduce_learnts()

            level = self._decision_level()
            if level < len(assumptions):
                # _propagate decides every assumption it reaches that is not false.
                falsified = assumptions[level]
                core = self._analyze_final([-falsified], assumptions) | {falsified}
                return SatResult(status=SatStatus.UNSAT, core=core)
            lit = self._pick_branch_literal()
            if lit is None:
                return SatResult(status=SatStatus.SAT, model=self._extract_model())
            self._decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    # ----------------------------------------------------------- propagation

    def _attach(self, clause: int) -> None:
        lits = self._lits[clause]
        self._watches.setdefault(lits[0], []).append(clause)
        self._watches.setdefault(lits[1], []).append(clause)

    def _propagate(self, assumptions: Sequence[int] = ()) -> Optional[int]:
        """Unit propagation, deciding pending assumptions at each fixpoint;
        returns the number of a conflicting clause or None.

        This is the solver's hottest loop.  Arrays are bound to locals and
        literal values are read inline from the assignment buffer
        (``assigns[lit]`` sign-adjusted).  Each visited watch list is
        compacted in place, in its order: a watcher that stays is written
        back at ``kept``, and the watchers that moved to another literal
        leave a gap that one ``del`` closes.

        At a fixpoint below ``len(assumptions)`` the next assumption is
        decided as a search decision would be: one already true gets an
        empty level, one unassigned gets a level of its own (no reason) and
        propagation goes on, and one false stops the call, returning None at
        that level for :meth:`_search` to explain.  When the learned clauses
        are over budget, they are reduced right before an unassigned
        assumption is decided, at the fixpoint where :meth:`_search` reduces
        them before any other decision.  No clause is learnt within a call,
        so the budget test is evaluated once on entry and again only after a
        reduction.
        """
        assigns = self._assigns
        clause_lits = self._lits
        watches = self._watches
        trail = self._trail
        trail_lim = self._trail_lim
        levels = self._levels
        reasons = self._reasons
        phase = self._phase
        level = len(trail_lim)
        num_assumptions = len(assumptions)
        head = self._propagation_head
        propagations = 0
        reduce_due = self._learnts_over_budget()
        while True:
            while head < len(trail):
                false_lit = -trail[head]
                head += 1
                watch_list = watches.get(false_lit)
                if not watch_list:
                    continue
                kept = moved = 0
                conflict: Optional[int] = None
                for clause in watch_list:
                    lits = clause_lits[clause]
                    # Ensure the falsified literal sits at position 1.
                    if lits[0] == false_lit:
                        lits[0], lits[1] = lits[1], lits[0]
                    first = lits[0]
                    first_value = assigns[first] if first > 0 else -assigns[-first]
                    if first_value == _TRUE:
                        watch_list[kept] = clause
                        kept += 1
                        continue
                    # Look for a replacement watch.
                    for k in range(2, len(lits)):
                        other = lits[k]
                        if (assigns[other] if other > 0 else -assigns[-other]) != _FALSE:
                            lits[1], lits[k] = other, lits[1]
                            watches.setdefault(other, []).append(clause)
                            moved += 1
                            break
                    else:
                        # Clause is unit or conflicting: it keeps this watch.
                        watch_list[kept] = clause
                        kept += 1
                        if first_value == _FALSE:
                            conflict = clause
                            break
                        if first > 0:
                            assigns[first] = _TRUE
                            var = first
                        else:
                            var = -first
                            assigns[var] = _FALSE
                        levels[var] = level
                        reasons[var] = clause
                        phase[var] = first > 0
                        trail.append(first)
                        propagations += 1
                if moved:
                    del watch_list[kept : kept + moved]
                if conflict is not None:
                    self._propagation_head = len(trail)
                    self._propagations += propagations
                    return conflict

            while level < num_assumptions:
                lit = assumptions[level]
                value = assigns[lit] if lit > 0 else -assigns[-lit]
                if value == _FALSE:
                    break
                trail_lim.append(len(trail))
                level += 1
                if value == _TRUE:
                    continue  # an empty level keeps levels in step with assumptions
                if reduce_due:
                    self._reduce_learnts()
                    reduce_due = self._learnts_over_budget()
                var = lit if lit > 0 else -lit
                assigns[var] = _TRUE if lit > 0 else _FALSE
                levels[var] = level
                reasons[var] = None
                phase[var] = lit > 0
                trail.append(lit)
                break
            if head == len(trail):
                self._propagation_head = head
                self._propagations += propagations
                return None

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        """Assign ``lit`` at the current level, unless it already has a value:
        then return whether that value makes it true."""
        assigns = self._assigns
        if lit > 0:
            var = lit
            value = assigns[var]
            if value != _UNASSIGNED:
                return value == _TRUE
            assigns[var] = _TRUE
        else:
            var = -lit
            value = assigns[var]
            if value != _UNASSIGNED:
                return value == _FALSE
            assigns[var] = _FALSE
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    # ------------------------------------------------------ conflict analysis

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """1-UIP conflict analysis; returns (learnt clause, backjump level)."""
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        counter = 0
        lit_iter: Optional[int] = None
        clause: Optional[int] = conflict
        trail_index = len(self._trail) - 1
        current_level = self._decision_level()
        to_clear: List[int] = []

        while True:
            assert clause is not None
            if self._learnt[clause]:
                self._bump_clause(clause)
            lits = self._lits[clause]
            for lit in lits[1:] if lit_iter is not None else lits:
                var = abs(lit)
                if lit_iter is not None and lit == lit_iter:
                    continue
                if not seen[var] and self._levels[var] > 0:
                    seen[var] = True
                    to_clear.append(var)
                    self._bump_var(var)
                    if self._levels[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(lit)
            # Select the next literal from the trail to resolve on.
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            lit_iter = self._trail[trail_index]
            var = abs(lit_iter)
            clause = self._reasons[var]
            seen[var] = False
            trail_index -= 1
            counter -= 1
            if counter == 0:
                break

        learnt[0] = -lit_iter

        # Compute the backjump level (second highest level in the clause).
        if len(learnt) == 1:
            backjump = 0
        else:
            max_idx = 1
            for i in range(2, len(learnt)):
                if self._levels[abs(learnt[i])] > self._levels[abs(learnt[max_idx])]:
                    max_idx = i
            learnt[1], learnt[max_idx] = learnt[max_idx], learnt[1]
            backjump = self._levels[abs(learnt[1])]

        for var in to_clear:
            seen[var] = False
        return learnt, backjump

    def _record_learnt(self, learnt: List[int]) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        if self._free:
            # Only learned clauses are freed, so the slot's flag is set.
            clause = self._free.pop()
            self._lits[clause] = learnt
            self._clause_activity[clause] = 0.0
        else:
            clause = len(self._lits)
            self._lits.append(learnt)
            self._learnt.append(True)
            self._clause_activity.append(0.0)
        self._learnts.append(clause)
        self._attach(clause)
        self._bump_clause(clause)
        self._enqueue(learnt[0], clause)

    def _analyze_final(self, seeds: Sequence[int], assumptions: List[int]) -> FrozenSet[int]:
        """The assumptions that imply the false literals ``seeds``, found by
        walking the trail back through reasons (MiniSat's ``analyzeFinal``).
        ``seeds`` is the conflict clause reached while deciding assumptions,
        or the complement of a falsified assumption; the caller adds that
        assumption to the core."""
        assumption_set = set(assumptions)
        core: Set[int] = set()
        seen = self._seen
        to_clear: List[int] = []
        for lit in seeds:
            var = abs(lit)
            if self._levels[var] > 0 and not seen[var]:
                seen[var] = True
                to_clear.append(var)
        for i in range(len(self._trail) - 1, -1, -1):
            lit = self._trail[i]
            var = abs(lit)
            if not seen[var]:
                continue
            reason = self._reasons[var]
            if reason is None:
                if lit in assumption_set:
                    core.add(lit)
            else:
                for other in self._lits[reason]:
                    other_var = abs(other)
                    if other_var != var and self._levels[other_var] > 0 and not seen[other_var]:
                        seen[other_var] = True
                        to_clear.append(other_var)
            seen[var] = False
        for var in to_clear:
            seen[var] = False
        return frozenset(core)

    # ------------------------------------------------------------- heuristics

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _bump_clause(self, clause: int) -> None:
        activity = self._clause_activity
        activity[clause] += self._clause_inc
        if activity[clause] > 1e20:
            for learnt in self._learnts:
                activity[learnt] *= 1e-20
            self._clause_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._clause_inc /= self._clause_decay

    def _pick_branch_literal(self) -> Optional[int]:
        best_var = None
        best_activity = -1.0
        for var in range(1, self._num_vars + 1):
            if self._assigns[var] == _UNASSIGNED and self._activity[var] > best_activity:
                best_var = var
                best_activity = self._activity[var]
        if best_var is None:
            return None
        return best_var if self._phase[best_var] else -best_var

    def _learnts_over_budget(self) -> bool:
        return len(self._learnts) > self._max_learnt_factor * max(self.num_clauses, 100)

    def _reduce_learnts(self) -> None:
        """Remove the less active half of the learned clauses (keeping
        reasons and binary clauses) and free their slots."""
        reasons = self._reasons
        locked = {reasons[abs(lit)] for lit in self._trail}
        lits = self._lits
        learnts = self._learnts
        learnts.sort(key=self._clause_activity.__getitem__)
        keep_from = len(learnts) // 2
        removed = [c for c in learnts[:keep_from] if c not in locked and len(lits[c]) > 2]
        if not removed:
            return
        removed_set = set(removed)
        kept = [c for c in learnts[:keep_from] if c not in removed_set]
        self._learnts = kept + learnts[keep_from:]
        for clause in removed:
            lits[clause] = []
        self._free += removed
        watches = self._watches
        for lit, watchers in watches.items():
            if watchers:
                watches[lit] = [c for c in watchers if c not in removed_set]

    # ----------------------------------------------------------------- helpers

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        boundary = self._trail_lim[level]
        for i in range(len(self._trail) - 1, boundary - 1, -1):
            lit = self._trail[i]
            var = abs(lit)
            self._assigns[var] = _UNASSIGNED
            self._reasons[var] = None
            self._phase[var] = lit > 0
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._propagation_head = len(self._trail)

    def _extract_model(self) -> Dict[int, bool]:
        model: Dict[int, bool] = {}
        for var in range(1, self._num_vars + 1):
            value = self._assigns[var]
            model[var] = value == _TRUE if value != _UNASSIGNED else self._phase[var]
        return model


def _luby(index: int) -> int:
    """Return the ``index``-th element (0-based) of the Luby restart sequence."""
    # Find the finite subsequence that contains index and its size.
    k = 1
    while (1 << k) - 1 <= index:
        k += 1
    k -= 1
    size = (1 << (k + 1)) - 1
    i = index
    while size - 1 != i:
        size = (size - 1) >> 1
        k -= 1
        i = i % size
    return 1 << k
