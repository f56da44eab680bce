"""Incremental MaxSAT sessions: the module route's one skeleton solver.

:class:`~repro.core.pipeline.ModuleOptima` solves a tree module by module
and hands each skeleton that needs a search
(:attr:`~repro.fta.compiled.Skeleton.by_rule` false) to a session of its
own, created on first use.  A cold analysis uses fresh optima, so its
sessions live for one solve; the warm route (``MaxSATBackend.run_batch``:
sweeps and monitors) keeps one ``ModuleOptima`` per structure, and with it
the sessions, across the probability-only trees of a batch.  A skeleton's
MPMCS encoding has a very particular shape: the *hard* clauses are the
Tseitin CNF of its gates (:attr:`Skeleton.cnf
<repro.fta.compiled.Skeleton.cnf>`) — fixed across every scenario of a
probability or maintenance sweep — while the *soft* clauses are unit clauses
``(¬x_i)``, one per leaf, whose weights are the only thing a weight-only
scenario changes.  Two classical facts make this shape perfectly
incremental:

* **Unsat cores are weight-independent.**  A core is a set of assumption
  literals that cannot hold together given the hard clauses; weights never
  participate.  Cores discovered while solving one scenario are therefore
  valid for *every* scenario sharing the structure: every new session
  starts from the skeleton's memo of them (:attr:`Skeleton.cores
  <repro.fta.compiled.Skeleton.cores>`).
* **CDCL state is reusable.**  Learned clauses are logical consequences of
  the clause database alone, so a solver that keeps its learned clauses,
  VSIDS activities and saved phases across calls (see
  :meth:`repro.sat.cdcl.CDCLSolver.add_clauses`) answers later, similar
  queries dramatically faster than a cold start.

:class:`IncrementalMaxSATSession` exploits both with a MaxHS-style implicit
hitting set loop (Davies & Bacchus) over one persistent solver:

1. compute a minimum-cost hitting set of the cached cores under the
   *current* scenario's leaf objectives; a round after the first of a solve
   starts that search from the previous hitting set plus the new core's
   cheapest member;
2. when the hitting set is a cut set of the skeleton, it is the answer, with
   no oracle call (see :meth:`IncrementalMaxSATSession.solve`).  It is known
   to be one when it contains no blocked set (see below) and it contains a
   cut set the session has already produced (its *candidate pool*), or
   evaluating the skeleton's gates over it reaches the root;
3. otherwise one SAT call assuming every soft clause outside the hitting set,
   highest objective first, as RC2 and the hitting set engine order their
   selectors.  UNSAT: cache the new core and repeat.  With the gates
   evaluated first the call is never satisfiable; a model would still be
   optimal, its cost bounded by the hitting set's.

The session weighs nothing itself: each leaf's objective is the one
:class:`~repro.core.pipeline.ModuleOptima` keeps for it (an event's
:func:`~repro.maxsat.instance.objective_weight`, or a sub-module optimum's
sum of them), so a kept session and a fresh one agree on every optimum.
Nothing a kept session adds to the solver is scenario-specific, which is
what makes a sweep a sequence of *weight-only re-solves*.  A ranking
(:func:`~repro.core.pipeline._rank_skeleton`) blocks each cut set it finds
(:meth:`IncrementalMaxSATSession.block`) on a session of its own, never a
kept one: a blocking clause only adds to the hard clauses, so every core
stays valid, but one found after it is never published to the memo.
Every solve reports the engine name :data:`SESSION_ENGINE`.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple
)

from repro.exceptions import BudgetExceededError, NoCutSetError, SolverInterrupted
from repro.fta.compiled import Skeleton
from repro.logic.cnf import Literal
from repro.maxsat.engine import heaviest_first, new_sat_solver
from repro.maxsat.hitting_set import MAX_ROUNDS, minimum_cost_hitting_set
from repro.observability import trace as _trace
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus

__all__ = ["IncrementalMaxSATSession", "SESSION_ENGINE"]

#: The engine name of every session solve, in results and reports.
SESSION_ENGINE = "incremental-hitting-set"

#: Each leaf's value, keyed by name, led by its objective (the only item read):
#: ``ModuleOptima``'s ``(objective, weight)`` or a ranking's cheapest entry.
LeafValues = Mapping[str, Tuple[int, Any]]


class IncrementalMaxSATSession:
    """Persistent MaxSAT solving for one module's skeleton.

    A session serves every tree of the skeleton's structure (every
    probability/maintenance scenario of a sweep), because the hard clauses,
    the leaf variable numbering and the unsat cores all depend on structure
    alone.

    Parameters
    ----------
    skeleton:
        The skeleton whose hard clauses (:attr:`Skeleton.cnf
        <repro.fta.compiled.Skeleton.cnf>`) the solver is loaded with.
    """

    def __init__(self, skeleton: Skeleton) -> None:
        self.skeleton = skeleton
        cnf = skeleton.cnf
        #: Made by the first SAT call or :meth:`block` (:meth:`_sat_solver`).
        self._solver: Optional[CDCLSolver] = None
        #: Each leaf's variable, in increasing variable order.
        self.event_vars: Dict[str, int] = dict(cnf.event_vars)
        self._var_events: Dict[int, str] = {var: name for name, var in self.event_vars.items()}
        #: Bit position of each leaf in the pool's bitmasks.
        self._event_column: Dict[str, int] = {
            name: column for column, name in enumerate(self.event_vars)
        }

        #: Cached cores: sets of leaf selectors.  Weight-independent, so they
        #: start as the skeleton's memo.
        self._cores: List[FrozenSet[Literal]] = list(skeleton.cores)
        #: How many cores the session took from the memo.
        self.seeded_cores = len(self._cores)

        #: Candidate pool: every optimal cut set this session has ever
        #: produced.  Feasibility ("the hard clauses admit a model whose true
        #: leaves are exactly this set") is weight-independent, so a pooled
        #: candidate certifies later scenarios without evaluating the gates.
        #: Maps each candidate to its leaf-column bitmask.
        self._pool: Dict[Tuple[str, ...], int] = {}
        #: The leaf-column bitmask of each set :meth:`block` excluded.
        self._blocked: List[int] = []

        self.sat_calls = 0
        self.solves = 0
        self.rounds = 0
        #: How solves were answered, cumulatively: ``certified`` without a
        #: SAT call (see :meth:`solve`), ``fallback`` by one.  ``pooled`` and
        #: ``bnb`` are kept at 0 for readers of the former batched re-rank
        #: split.
        self.rerank_stats: Dict[str, int] = {
            "pooled": 0,
            "certified": 0,
            "bnb": 0,
            "fallback": 0,
        }

    # -- solving ---------------------------------------------------------------

    def solve(
        self, value: LeafValues, stop_check: Optional[Callable[[], bool]] = None
    ) -> List[str]:
        """The leaves the skeleton's optimum takes under ``value``, in
        variable order.

        Raises :class:`NoCutSetError` when no cut set is left unblocked and
        :class:`BudgetExceededError` when the core-discovery loop exceeds
        :data:`~repro.maxsat.hitting_set.MAX_ROUNDS` or the hitting set
        search its node budget.  That empties the skeleton's memo, and a
        session that held any core when the solve started, the memo's or
        its own, retries the solve once from no core, so no held core fails
        a solve that succeeds without it.  ``stop_check``
        is the caller's cooperative cancellation hook (:attr:`MPMCSSolver.stop_check
        <repro.core.pipeline.MPMCSSolver.stop_check>`), polled every round,
        by the SAT solver and by the hitting set search: it ends the solve
        with :class:`SolverInterrupted` once it returns true.

        A round whose minimum-cost hitting set is a cut set returns it
        without a SAT call: it contains no blocked set, and it contains a
        pooled cut set or evaluating the gates over it reaches the root.
        This is exactly what the SAT call would return: the hitting set is
        a cut set, so the call is satisfiable; the model's true leaves hit
        every cached core, so they cost at least as much as the hitting set,
        and with every objective positive a subset of equal cost is the
        hitting set itself.  The objective is the canonical order, so the
        answer is the canonical optimum.  A session that has blocked
        nothing then publishes its cores to the skeleton's memo.
        """
        with _trace.span("maxsat.solve") as span:
            calls_before = self.sat_calls
            rounds_before = self.rounds
            held = bool(self._cores)
            try:
                leaves = self._solve(value, stop_check)
            except BudgetExceededError:
                # The cores held may be what outgrew the search.
                self.skeleton.cores = ()
                if not held:
                    raise
                self._cores, self.seeded_cores = [], 0
                leaves = self._solve(value, stop_check)
            # Unlocked: every tuple a session publishes holds sound cores, so
            # a concurrent publish lost here loses work, never an answer.
            if not self._blocked and len(self._cores) > len(self.skeleton.cores):
                self.skeleton.cores = tuple(self._cores)
            if span.is_recording:
                span.add("sat_calls", self.sat_calls - calls_before)
                span.add("hs_rounds", self.rounds - rounds_before)
                span.add("seeded_cores", self.seeded_cores)
            return leaves

    #: The name the benchmark tracer (``perfbench/tracing.py``) times warm
    #: solves by; nothing in the library calls it.
    solve_tree = solve

    def solve_batch(self, values: Sequence[LeafValues]) -> List[List[str]]:
        """:meth:`solve` for each value map in order, in one span."""
        with _trace.span("maxsat.solve_batch", scenarios=len(values)) as span:
            stats_before = dict(self.rerank_stats)
            calls_before = self.sat_calls
            results = [self.solve(value) for value in values]
            if span.is_recording:
                span.add("sat_calls", self.sat_calls - calls_before)
                for tier, count in self.rerank_stats.items():
                    span.add(tier, count - stats_before[tier])
            return results

    def block(self, leaves: Sequence[str]) -> None:
        """Exclude every cut set that contains ``leaves`` from later solves.

        The clause ``(¬x_l …)`` goes to this session's copy of the skeleton's
        memoised solver.  A hitting set that contains a blocked set is never
        certified, by the pool or by the gates (see :meth:`solve`), so the
        SAT call's core rules it out.  A core found under a blocking clause
        may not hold without it, so the session no longer publishes cores.
        """
        self._sat_solver().add_clause([-self.event_vars[leaf] for leaf in leaves])
        self._blocked.append(self._event_mask(leaves))

    def _solve(
        self, value: LeafValues, stop_check: Optional[Callable[[], bool]]
    ) -> List[str]:
        # Assuming a leaf's selector ``-var`` keeps it out of the cut set.
        objective = {-var: value[leaf][0] for leaf, var in self.event_vars.items()}
        selectors = heaviest_first(objective)
        certified = False
        leaves: Optional[Tuple[str, ...]] = None
        incumbent: Optional[Set[Literal]] = None
        for _ in range(MAX_ROUNDS):
            if stop_check is not None and stop_check():
                raise SolverInterrupted("session solve stopped by cooperative cancellation")
            self.rounds += 1
            hitting_set, _ = minimum_cost_hitting_set(
                self._cores, objective, incumbent=incumbent, stop_check=stop_check
            )
            candidate = tuple(sorted(self._var_events[-literal] for literal in hitting_set))
            if not (self._blocked and self._contains(candidate, self._blocked)) and (
                candidate in self._pool
                or self._contains(candidate, self._pool.values())
                or self.skeleton.reaches_root(candidate)
            ):
                leaves, certified = candidate, True
                break

            assumptions = [selector for selector in selectors if selector not in hitting_set]
            solver = self._sat_solver()
            solver.stop_check = stop_check
            result = solver.solve(assumptions)
            self.sat_calls += 1
            if result.status is SatStatus.SAT:
                model = result.model or {}
                leaves = tuple(
                    sorted(name for name, var in self.event_vars.items() if model.get(var, False))
                )
                break
            core = frozenset(result.core)
            if not core:
                # Conflict independent of every assumption: the skeleton's
                # root cannot occur at all.
                raise NoCutSetError(f"the skeleton of module {self.skeleton.root!r} has no cut set")
            self._cores.append(core)
            # The core is disjoint from the hitting set (it holds only assumed
            # selectors), so adding its cheapest member hits every core.
            incumbent = hitting_set | {min(core, key=objective.__getitem__)}
        else:
            raise BudgetExceededError(
                f"incremental MaxSAT session exceeded {MAX_ROUNDS} core rounds"
            )

        self.solves += 1
        self.rerank_stats["certified" if certified else "fallback"] += 1
        if leaves not in self._pool:
            self._pool[leaves] = self._event_mask(leaves)
        chosen = set(leaves)
        return [leaf for leaf in self.event_vars if leaf in chosen]

    def _sat_solver(self) -> CDCLSolver:
        """This session's solver, copied from the skeleton's memoised one on
        first use: a solve the cores and the pool answer needs none."""
        if self._solver is None:
            self._solver = new_sat_solver(self.skeleton.cnf.instance)
        return self._solver

    # -- candidate pool --------------------------------------------------------

    @property
    def pool_size(self) -> int:
        return len(self._pool)

    def _event_mask(self, leaves: Iterable[str]) -> int:
        mask = 0
        for name in leaves:
            mask |= 1 << self._event_column[name]
        return mask

    def _contains(self, leaves: Tuple[str, ...], masks: Iterable[int]) -> bool:
        """Whether one of the leaf sets ``masks`` is a subset of ``leaves``.

        Over the pool, the weight-free feasibility certificate: a superset
        of a verified cut set that contains no blocked set admits a model.
        """
        mask = self._event_mask(leaves)
        return any(candidate & ~mask == 0 for candidate in masks)

    # -- introspection ---------------------------------------------------------

    @property
    def num_cores(self) -> int:
        return len(self._cores)

    @property
    def num_learnts(self) -> int:
        return self._solver.num_learnts if self._solver is not None else 0

    def stats(self) -> Dict[str, Any]:
        """Counters for logging and the profiling report."""
        return {
            "solves": self.solves,
            "sat_calls": self.sat_calls,
            "rounds": self.rounds,
            "cores": len(self._cores),
            "learnt_clauses": self.num_learnts,
            "pool_candidates": len(self._pool),
            "rerank_pooled": self.rerank_stats["pooled"],
            "rerank_certified": self.rerank_stats["certified"],
            "rerank_bnb": self.rerank_stats["bnb"],
            "rerank_fallback": self.rerank_stats["fallback"],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalMaxSATSession(root={self.skeleton.root!r}, "
            f"leaves={len(self.event_vars)}, cores={len(self._cores)}, solves={self.solves})"
        )
