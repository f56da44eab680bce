"""Warm-started incremental MaxSAT sessions for weight-only re-solves.

The MPMCS encoding has a very particular shape: the *hard* clauses are the
Tseitin CNF of the fault tree's structure function — fixed across every
scenario of a probability or maintenance sweep — while the *soft* clauses are
unit clauses ``(¬x_i)`` whose weights are the only thing a weight-only
scenario changes.  Two classical facts make this shape perfectly incremental:

* **Unsat cores are weight-independent.**  A core is a set of assumption
  literals that cannot hold together given the hard clauses; weights never
  participate.  Cores discovered while solving one scenario are therefore
  valid for *every* scenario sharing the structure.
* **CDCL state is reusable.**  Learned clauses are logical consequences of
  the clause database alone, so a solver that keeps its learned clauses,
  VSIDS activities and saved phases across calls (see
  :meth:`repro.sat.cdcl.CDCLSolver.add_clauses`) answers later, similar
  queries dramatically faster than a cold start.

:class:`IncrementalMaxSATSession` exploits both with a MaxHS-style implicit
hitting set loop (Davies & Bacchus) over one persistent solver:

1. compute a minimum-cost hitting set of the cached cores under the
   *current* scenario's weights;
2. when the hitting set is a cut set, it is the answer, with no oracle call
   (see :meth:`IncrementalMaxSATSession.solve`).  It is known to be a cut
   set when it contains one the session has already produced (its
   *candidate pool*), or, when the session solves for a tree, by evaluating
   the tree.  In a weight-only sweep most scenarios are answered this way;
3. otherwise one SAT call assuming every soft clause outside the hitting set.
   SAT: the model is optimal (its cost is bounded by the hitting set's cost,
   which lower-bounds every solution).  UNSAT: cache the new core and repeat.

Each event's weight is its :func:`~repro.maxsat.instance.objective_weight`,
as in the cold encoding, which orders cut sets by scaled cost, then size,
then sorted names, so the optimum is unique and equals the cold one.  Event
ranks depend only on the structure, so the session computes them once.  So
do the hard clauses, which are encoded once per structure, not cached per
tree: the session loads them from ``tree.compiled().cnf``, as the cold
encoding does.

Nothing the session ever adds to the solver is scenario-specific, which is
what makes a maintenance or probability sweep a sequence of *weight-only
re-solves*: no re-encoding, no solver restart.  The session answers one
optimum per solve; rankings are
:meth:`MPMCSSolver.rank <repro.core.pipeline.MPMCSSolver.rank>`'s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import BudgetExceededError
from repro.fta.tree import FaultTree
from repro.logic.cnf import Literal
from repro.maxsat.engine import new_sat_solver
from repro.maxsat.hitting_set import minimum_cost_hitting_set
from repro.maxsat.instance import DEFAULT_PRECISION, objective_weight, scale_weight
from repro.observability import trace as _trace
from repro.sat.types import SatStatus

__all__ = ["IncrementalMaxSATSession", "IncrementalSolveResult", "MAX_ROUNDS"]

#: Safety cap on core-discovery rounds per solve; a solve that exceeds it
#: raises :class:`BudgetExceededError`, and the caller falls back to the
#: cold portfolio.
MAX_ROUNDS = 100_000


@dataclass(frozen=True)
class IncrementalSolveResult:
    """One optimal solution of a weight-only re-solve.

    ``events`` is the extracted minimal cut set, ``scaled_cost`` the sum of
    its events' scaled weights (the cost the canonical order ranks by first)
    and ``cost`` the float ``-log`` objective.
    """

    events: Tuple[str, ...]
    scaled_cost: int
    cost: float
    probability_weights: Dict[str, float]
    sat_calls: int
    solve_time: float


class IncrementalMaxSATSession:
    """Persistent MaxSAT solving for one fault-tree *structure*.

    A session is keyed by the structure-only hash of the tree it was built
    from: any tree sharing that hash (every probability/maintenance scenario
    of a sweep) can be re-solved through the same session by passing its
    weights, because the hard clauses, the event variable numbering (by
    *name*) and the unsat cores all depend on structure alone.

    Parameters
    ----------
    tree:
        The tree whose structure's hard clauses (``tree.compiled().cnf``)
        the solver is loaded with.  Only its structure is retained —
        per-solve weights come from :meth:`solve_tree` / :meth:`solve`.
    """

    def __init__(self, tree: FaultTree) -> None:
        started = time.perf_counter()
        compiled = tree.compiled()
        structure = compiled.cnf
        self._solver = new_sat_solver(structure.instance)

        # A valid tree reaches every basic event, so each has a variable;
        # they come in increasing variable order.
        self.event_vars: Dict[str, int] = dict(structure.event_vars)
        self._var_events: Dict[int, str] = {
            var: name for name, var in self.event_vars.items()
        }
        #: Soft selectors in deterministic (variable) order: assuming the
        #: selector means "this event stays out of the cut set".
        self._selectors: Tuple[Literal, ...] = tuple(-var for var in self.event_vars.values())
        #: Bit position of each event in the pool's bitmasks.
        self._event_column: Dict[str, int] = {
            name: column for column, name in enumerate(self.event_vars)
        }
        #: ``(name, selector, rank)`` per event, ``rank`` its place in sorted
        #: name order (the structure's ranks): the structure-only part of the
        #: objective weights.
        self._objective_terms: Tuple[Tuple[str, Literal, int], ...] = tuple(
            (name, -self.event_vars[name], rank) for name, rank in compiled.event_ranks.items()
        )
        self.num_vars = structure.instance.num_vars
        self.num_hard = structure.instance.num_hard
        self.num_aux_vars = structure.num_aux_vars

        #: Cached cores: sets of event selectors.  Weight-independent.
        self._cores: List[FrozenSet[Literal]] = []
        #: The last optimal hitting set: in a weight-only sweep the optimum
        #: rarely moves, so it seeds the branch-and-bound with a near-tight
        #: upper bound.
        self._hs_seed: Optional[Set[Literal]] = None

        #: Candidate pool: every optimal cut set this session has ever
        #: produced.  Feasibility ("the hard clauses admit a model whose true
        #: events are exactly this set") is weight-independent, so a pooled
        #: candidate certifies later scenarios without an oracle call.
        #: Maps each candidate to its event-column bitmask.
        self._pool: Dict[Tuple[str, ...], int] = {}

        self.encode_time = time.perf_counter() - started
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

    # -- weights ---------------------------------------------------------------

    def scaled_cost_of(self, events: Iterable[str], weights: Dict[str, float]) -> int:
        """The scaled cost of a cut set under ``weights``."""
        return sum(scale_weight(weights[name], DEFAULT_PRECISION) for name in events)

    def _objective(self, weights: Dict[str, float]) -> Dict[Literal, int]:
        """Each event selector's :func:`objective_weight` under ``weights``.

        The cold encoding uses the same function, so the warm and cold
        paths agree on every optimum.
        """
        count = len(self._objective_terms)
        return {
            selector: objective_weight(weights[name], rank, count, DEFAULT_PRECISION)
            for name, selector, rank in self._objective_terms
        }

    # -- solving ---------------------------------------------------------------

    def solve_tree(self, tree: FaultTree) -> Optional[IncrementalSolveResult]:
        """Solve for ``tree``'s probabilities (its structure must match).

        Derives the ``-log`` weights from the tree's event probabilities
        exactly like the cold pipeline's Step 3, then solves like
        :meth:`solve`, with ``tree`` at hand to certify hitting sets by
        evaluation.
        """
        from repro.core.weights import log_weight  # lazy: avoids an import cycle

        probabilities = tree.probabilities()
        weights = {
            name: log_weight(probabilities[name]) for name in self.event_vars
        }
        return self._solve(weights, tree)

    def solve(self, weights: Dict[str, float]) -> Optional[IncrementalSolveResult]:
        """Minimum ``-log``-weight cut set under ``weights``; ``None`` if the
        structure has no cut set at all.

        Raises :class:`BudgetExceededError` when the core-discovery loop
        exceeds :data:`MAX_ROUNDS` (callers then fall back to a cold solve).

        A round whose minimum-cost hitting set is a cut set returns that
        hitting set without a SAT call.  Here the hitting set counts as a
        cut set when it contains a pooled one; :meth:`solve_tree` also
        evaluates its tree.  This is exactly what the SAT call would return:
        the hitting set is a cut set, so the call is satisfiable; the
        model's true events hit every cached core, so they cost at least as
        much as the hitting set, and with every objective weight positive a
        subset of equal cost is the hitting set itself.  The objective is the
        canonical order, so the answer is the canonical optimum.
        """
        return self._solve(weights, None)

    def _solve(
        self, weights: Dict[str, float], tree: Optional[FaultTree]
    ) -> Optional[IncrementalSolveResult]:
        with _trace.span("maxsat.solve") as span:
            calls_before = self.sat_calls
            rounds_before = self.rounds
            result = self._solve_impl(weights, tree)
            if span.is_recording:
                span.add("sat_calls", self.sat_calls - calls_before)
                span.add("hs_rounds", self.rounds - rounds_before)
                span.add("solutions", 0 if result is None else 1)
            return result

    def solve_batch(
        self, weights_seq: Sequence[Dict[str, float]]
    ) -> List[Optional[IncrementalSolveResult]]:
        """:meth:`solve` for each weight vector in order, in one span."""
        with _trace.span("maxsat.solve_batch", scenarios=len(weights_seq)) as span:
            stats_before = dict(self.rerank_stats)
            calls_before = self.sat_calls
            results = [self.solve(weights) for weights in weights_seq]
            if span.is_recording:
                span.add("sat_calls", self.sat_calls - calls_before)
                for tier, count in self.rerank_stats.items():
                    span.add(tier, count - stats_before[tier])
                span.add(
                    "solutions", sum(1 for result in results if result is not None)
                )
            return results

    def _solve_impl(
        self, weights: Dict[str, float], tree: Optional[FaultTree]
    ) -> Optional[IncrementalSolveResult]:
        started = time.perf_counter()
        objective = self._objective(weights)
        sat_calls = 0
        certified = False
        events: Optional[Tuple[str, ...]] = None
        for _ in range(MAX_ROUNDS):
            self.rounds += 1
            hitting_set, _ = minimum_cost_hitting_set(
                self._cores, objective, seed=self._hs_seed
            )
            self._hs_seed = hitting_set
            candidate = tuple(sorted(self._var_events[-literal] for literal in hitting_set))
            if self._is_cut_set(candidate, tree):
                events, certified = candidate, True
                break

            assumptions = [
                selector for selector in self._selectors if selector not in hitting_set
            ]
            result = self._solver.solve(assumptions)
            sat_calls += 1

            if result.status is SatStatus.SAT:
                model = result.model or {}
                events = tuple(
                    sorted(
                        name
                        for name, var in self.event_vars.items()
                        if model.get(var, False)
                    )
                )
                break

            core = frozenset(result.core)
            if not core:
                # Conflict independent of every assumption: the structure
                # itself is unsatisfiable — the top event cannot occur.
                break
            self._cores.append(core)
        else:
            raise BudgetExceededError(
                f"incremental MaxSAT session exceeded {MAX_ROUNDS} core rounds"
            )

        self.solves += 1
        self.sat_calls += sat_calls
        if certified:
            self.rerank_stats["certified"] += 1
        elif sat_calls:
            self.rerank_stats["fallback"] += 1
        if events is None:
            return None
        self._register_candidate(events)
        probability_weights = {name: weights[name] for name in events}
        return IncrementalSolveResult(
            events=events,
            scaled_cost=self.scaled_cost_of(events, weights),
            cost=sum(probability_weights.values()),
            probability_weights=probability_weights,
            sat_calls=sat_calls,
            solve_time=time.perf_counter() - started,
        )

    # -- candidate pool --------------------------------------------------------

    def _register_candidate(self, events: Tuple[str, ...]) -> None:
        """Admit a verified optimal cut set into the candidate pool."""
        if events not in self._pool:
            self._pool[events] = self._event_mask(events)

    @property
    def pool_size(self) -> int:
        return len(self._pool)

    def _event_mask(self, events: Tuple[str, ...]) -> int:
        mask = 0
        for name in events:
            mask |= 1 << self._event_column[name]
        return mask

    def _contains_pooled(self, events: Tuple[str, ...]) -> bool:
        """Whether some pooled candidate is a subset of ``events``.

        The weight-free feasibility certificate: a pooled candidate is a
        verified cut set, and any superset of a cut set admits a model, so the
        oracle call of a solve round on ``events`` is guaranteed to succeed.
        """
        if events in self._pool:
            return True
        mask = self._event_mask(events)
        return any(candidate & ~mask == 0 for candidate in self._pool.values())

    def _is_cut_set(self, events: Tuple[str, ...], tree: Optional[FaultTree]) -> bool:
        """Whether ``events`` is a cut set: a superset of a pooled one, or,
        with ``tree`` at hand, by evaluating it."""
        return self._contains_pooled(events) or (tree is not None and tree.is_cut_set(events))

    # -- introspection ---------------------------------------------------------

    @property
    def num_cores(self) -> int:
        return len(self._cores)

    @property
    def num_learnts(self) -> int:
        return self._solver.num_learnts

    def stats(self) -> Dict[str, Any]:
        """Counters for logging and the profiling report."""
        return {
            "solves": self.solves,
            "sat_calls": self.sat_calls,
            "rounds": self.rounds,
            "cores": len(self._cores),
            "learnt_clauses": self._solver.num_learnts,
            "num_vars": self.num_vars,
            "num_hard": self.num_hard,
            "encode_seconds": self.encode_time,
            "pool_candidates": len(self._pool),
            "rerank_pooled": self.rerank_stats["pooled"],
            "rerank_certified": self.rerank_stats["certified"],
            "rerank_bnb": self.rerank_stats["bnb"],
            "rerank_fallback": self.rerank_stats["fallback"],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalMaxSATSession(events={len(self.event_vars)}, "
            f"cores={len(self._cores)}, solves={self.solves})"
        )
