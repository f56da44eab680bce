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
2. one SAT call assuming every soft clause outside the hitting set — on a
   warm session this is typically the *only* oracle work a scenario needs;
3. SAT: the model is optimal (its cost is bounded by the hitting set's cost,
   which lower-bounds every solution).  UNSAT: cache the new core and repeat.

Blocking clauses for tied-optimum / top-k enumeration are added once with an
*activation literal* ``r`` — ``(r ∨ ¬x_1 ∨ … ∨ ¬x_k)`` constrains nothing
until ``¬r`` is assumed — so they too persist and are reused by every later
scenario that blocks the same cut set.  Nothing the session ever adds to the
solver is scenario-specific, which is what makes a maintenance or
probability sweep a sequence of *weight-only re-solves*: no re-encoding, no
solver restart.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro import kernels as _kernels
from repro.exceptions import AnalysisError, BudgetExceededError, SolverError
from repro.fta.tree import FaultTree
from repro.kernels.bitset import CoverageIndex
from repro.logic.cnf import Literal
from repro.maxsat.hitting_set import minimum_cost_hitting_set
from repro.maxsat.instance import DEFAULT_PRECISION, scale_weight
from repro.observability import trace as _trace
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus

__all__ = ["IncrementalMaxSATSession", "IncrementalSolveResult"]


@dataclass(frozen=True)
class IncrementalSolveResult:
    """One optimal solution of a weight-only re-solve.

    ``events`` is the extracted minimal cut set, ``scaled_cost`` the integer
    objective at the session's precision (the granularity every tie decision
    must use) and ``cost`` the float ``-log`` objective.

    ``rerank`` records which tier of the batched re-rank ladder produced the
    result (``"pooled"``, ``"certified"`` or ``"fallback"``); it
    is empty for plain per-scenario solves and is telemetry only — it never
    participates in result comparison.
    """

    events: Tuple[str, ...]
    scaled_cost: int
    cost: float
    probability_weights: Dict[str, float]
    sat_calls: int
    solve_time: float
    rerank: str = ""


@dataclass
class _RerankPrep:
    """Weight-independent per-batch state of :meth:`solve_batch`.

    Everything here is a function of (cores, blocking clauses, blocked set)
    only — it is computed once per batch and recomputed only when a fallback
    solve grows the core collection mid-batch.
    """

    signature: FrozenSet[Literal]
    blocked_sets: Tuple[FrozenSet[str], ...]
    core_count: int
    usable: List[FrozenSet[Literal]]
    exhausted: bool
    index: Optional[CoverageIndex]
    #: Pairwise-disjoint usable cores as event-column lists: the packing
    #: family behind the vectorised hitting-set lower bound.
    disjoint_columns: List[List[int]]


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
        The tree whose structure function is encoded.  Only its structure is
        retained — per-solve weights come from :meth:`solve_tree` /
        :meth:`solve`.
    cache:
        Optional artifact cache; forwarded to
        :func:`~repro.core.encoder.assemble_structure_cnf` so the encoding is
        stitched from cached per-gate CNF fragments.
    precision:
        Integer weight scaling, which must match the cold pipeline's for the
        two paths to agree on ties.
    max_rounds:
        Safety cap on core-discovery iterations per solve; exceeding it
        raises :class:`BudgetExceededError` so callers can fall back to the
        cold portfolio.
    kernels:
        Kernel suite (:func:`repro.kernels.select`) used by the batched
        re-rank path (:meth:`solve_batch`) for its hitting-set lower bounds.
        Defaults to the auto-selected tier.  The re-rank kernels work on
        scaled integers, so the tier never changes results.
    """

    def __init__(
        self,
        tree: FaultTree,
        cache: Optional[Any] = None,
        *,
        precision: int = DEFAULT_PRECISION,
        max_rounds: int = 100_000,
        kernels: Optional[_kernels.KernelSuite] = None,
    ) -> None:
        # Imported lazily: repro.core.encoder imports repro.maxsat.instance,
        # so a top-level import here would cycle through the package inits.
        from repro.core.encoder import assemble_structure_cnf

        if precision <= 0:
            raise SolverError("precision must be a positive integer")
        started = time.perf_counter()
        self.precision = precision
        self.max_rounds = max_rounds
        self._kernels = kernels if kernels is not None else _kernels.select(None)

        encoding = assemble_structure_cnf(tree, cache)
        self._solver = CDCLSolver()
        for _ in range(encoding.cnf.num_vars):
            self._solver.new_var()
        for clause in encoding.cnf:
            self._solver.add_clause(list(clause.literals))

        reachable = set(tree.events_reachable_from_top())
        self.event_vars: Dict[str, int] = {
            name: var
            for name, var in sorted(encoding.var_map.items(), key=lambda item: item[1])
            if name in reachable
        }
        if not self.event_vars:
            raise AnalysisError(
                f"fault tree {tree.name!r} has no events reachable from the top"
            )
        self._var_events: Dict[int, str] = {
            var: name for name, var in self.event_vars.items()
        }
        #: Soft selectors in deterministic (variable) order: assuming the
        #: selector means "this event stays out of the cut set".
        self._selectors: Tuple[Literal, ...] = tuple(
            -var for var in sorted(self._var_events)
        )
        #: Event names in selector order — the column order of every scaled
        #: weight row the re-rank kernels consume.
        self._event_order: Tuple[str, ...] = tuple(
            self._var_events[var] for var in sorted(self._var_events)
        )
        self._event_column: Dict[str, int] = {
            name: column for column, name in enumerate(self._event_order)
        }
        self._selector_column: Dict[Literal, int] = {
            -var: column for column, var in enumerate(sorted(self._var_events))
        }
        self.num_vars = encoding.cnf.num_vars
        self.num_hard = encoding.cnf.num_clauses
        self.num_aux_vars = len(encoding.aux_vars)

        #: Cached cores: frozensets of assumption literals (event selectors
        #: and possibly block-activation assumptions).  Weight-independent.
        self._cores: List[FrozenSet[Literal]] = []
        #: Persistent blocking clauses: cut set -> activation variable ``r``.
        self._block_vars: Dict[Tuple[str, ...], int] = {}
        self._block_var_set: Set[int] = set()
        #: Last optimal hitting set per block signature: in a weight-only
        #: sweep the optimum rarely moves, so the previous solution seeds the
        #: branch-and-bound with a near-tight upper bound.
        self._hs_memo: Dict[FrozenSet[Literal], Set[Literal]] = {}

        #: Candidate pool: every SAT-verified optimal cut set this session has
        #: ever produced.  Feasibility ("the hard clauses admit a model whose
        #: true events are exactly this set") is weight-independent, so a
        #: pooled candidate certifies later scenarios without an oracle call.
        #: Maps each candidate to its event-column bitmask.
        self._pool: Dict[Tuple[str, ...], int] = {}

        self.encode_time = time.perf_counter() - started
        self.sat_calls = 0
        self.solves = 0
        self.rounds = 0
        #: How each :meth:`solve_batch` scenario was resolved, cumulatively.
        self.rerank_stats: Dict[str, int] = {
            "pooled": 0,
            "certified": 0,
            "bnb": 0,
            "fallback": 0,
        }

    # -- weights ---------------------------------------------------------------

    def _scale_weight(self, weight: float) -> int:
        """The shared quantisation (:func:`repro.maxsat.instance.scale_weight`).

        Warm/cold agreement on tied optima depends on both paths using the
        one definition, so this is a delegation, not a re-implementation.
        """
        return scale_weight(weight, self.precision)

    def scaled_cost_of(self, events: Iterable[str], weights: Dict[str, float]) -> int:
        """The integer objective of a cut set under ``weights``."""
        return sum(self._scale_weight(weights[name]) for name in events)

    # -- blocking --------------------------------------------------------------

    def _block_assumption(self, cut_set: Tuple[str, ...]) -> Literal:
        """The assumption literal activating the blocking clause of ``cut_set``.

        Created on first use: the clause ``(r ∨ ¬x_1 ∨ … ∨ ¬x_k)`` is inert
        while ``r`` is free and forbids the cut set (and all supersets) while
        ``¬r`` is assumed.  The clause persists, so re-blocking the same cut
        set in a later scenario costs nothing.
        """
        key = tuple(sorted(cut_set))
        var = self._block_vars.get(key)
        if var is None:
            var = self._solver.new_var()
            try:
                literals = [var] + [-self.event_vars[name] for name in key]
            except KeyError as exc:
                raise AnalysisError(
                    f"cannot block cut set {key!r}: event {exc.args[0]!r} is not part "
                    "of this structure"
                ) from None
            self._solver.add_clause(literals)
            self._block_vars[key] = var
            self._block_var_set.add(var)
        return -var

    # -- solving ---------------------------------------------------------------

    def solve_tree(
        self, tree: FaultTree, blocked: Sequence[Tuple[str, ...]] = ()
    ) -> Optional[IncrementalSolveResult]:
        """Solve for ``tree``'s probabilities (its structure must match).

        Convenience wrapper deriving the ``-log`` weights from the tree's
        event probabilities exactly like the cold pipeline's Step 3.
        """
        from repro.core.weights import log_weight  # lazy: avoids an import cycle

        probabilities = tree.probabilities()
        weights = {
            name: log_weight(probabilities[name]) for name in self.event_vars
        }
        return self.solve(weights, blocked)

    def solve(
        self,
        weights: Dict[str, float],
        blocked: Sequence[Tuple[str, ...]] = (),
    ) -> Optional[IncrementalSolveResult]:
        """Minimum ``-log``-weight cut set under ``weights``; ``None`` if none.

        ``None`` mirrors the cold path's exhausted-enumeration signal: either
        the structure has no cut set at all, or every remaining cut set is
        forbidden by ``blocked``.  Raises :class:`BudgetExceededError` when
        the core-discovery loop exceeds ``max_rounds`` (callers then fall
        back to a cold solve).
        """
        with _trace.span("maxsat.solve", blocked=len(blocked)) as span:
            calls_before = self.sat_calls
            rounds_before = self.rounds
            result = self._solve_impl(weights, blocked)
            if span.is_recording:
                span.add("sat_calls", self.sat_calls - calls_before)
                span.add("hs_rounds", self.rounds - rounds_before)
                span.add("solutions", 0 if result is None else 1)
            return result

    def _solve_impl(
        self,
        weights: Dict[str, float],
        blocked: Sequence[Tuple[str, ...]],
    ) -> Optional[IncrementalSolveResult]:
        started = time.perf_counter()
        scaled: Dict[Literal, int] = {
            -var: self._scale_weight(weights[name])
            for name, var in self.event_vars.items()
        }
        block_assumptions = sorted(
            (self._block_assumption(cut_set) for cut_set in blocked), key=abs
        )
        active_blocks = set(block_assumptions)

        sat_calls = 0
        for _ in range(self.max_rounds):
            self.rounds += 1
            usable, exhausted = self._usable_cores(active_blocks)
            if exhausted:
                self.solves += 1
                self.sat_calls += sat_calls
                return None

            signature = frozenset(active_blocks)
            hitting_set, _ = minimum_cost_hitting_set(
                usable, scaled, seed=self._hs_memo.get(signature)
            )
            self._hs_memo[signature] = hitting_set
            assumptions = block_assumptions + [
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
                self.solves += 1
                self.sat_calls += sat_calls
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

            core = frozenset(result.core)
            if not core:
                # Conflict independent of every assumption: the structure
                # itself is unsatisfiable — the top event cannot occur.
                self.solves += 1
                self.sat_calls += sat_calls
                return None
            self._cores.append(core)

        raise BudgetExceededError(
            f"incremental MaxSAT session exceeded {self.max_rounds} core rounds"
        )

    def _usable_cores(
        self, active_blocks: Set[Literal]
    ) -> Tuple[List[FrozenSet[Literal]], bool]:
        """Cached cores valid under ``active_blocks``, stripped of block literals.

        The second element is the exhaustion flag: a core consisting solely of
        active block assumptions means the blocked cut sets alone already
        exhaust the structure, so the solve's answer is ``None``.
        """
        usable: List[FrozenSet[Literal]] = []
        for core in self._cores:
            block_part = frozenset(
                literal for literal in core if abs(literal) in self._block_var_set
            )
            if not block_part <= active_blocks:
                continue  # depends on a blocking clause that is not active
            stripped = core - block_part
            if not stripped:
                return [], True
            usable.append(stripped)
        return usable, False

    # -- batched re-rank -------------------------------------------------------

    def _register_candidate(self, events: Tuple[str, ...]) -> None:
        """Admit a SAT-verified optimal cut set into the candidate pool."""
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

        This is the SAT-free feasibility certificate: a pooled candidate is a
        verified cut set, and any superset of a cut set admits a model, so the
        oracle call the sequential loop would make is guaranteed to succeed.
        """
        if events in self._pool:
            return True
        mask = self._event_mask(events)
        return any(candidate & ~mask == 0 for candidate in self._pool.values())

    @staticmethod
    def _admissible(
        events: Tuple[str, ...], blocked_sets: Tuple[FrozenSet[str], ...]
    ) -> bool:
        """No active blocking clause forbids ``events`` (or a superset rule)."""
        event_set = frozenset(events)
        return all(not blocked <= event_set for blocked in blocked_sets)

    def _prepare_rerank(self, blocked: Sequence[Tuple[str, ...]]) -> _RerankPrep:
        """The weight-independent batch state for the current core collection."""
        active_blocks = {self._block_assumption(cut_set) for cut_set in blocked}
        usable, exhausted = self._usable_cores(active_blocks)
        index: Optional[CoverageIndex] = None
        disjoint_columns: List[List[int]] = []
        if not exhausted:
            index = CoverageIndex(usable)
            # Greedy disjoint-core packing in discovery order: any hitting set
            # must pay at least the cheapest element of each selected core.
            claimed: Set[Literal] = set()
            for core in usable:
                if claimed.isdisjoint(core):
                    claimed |= core
                    disjoint_columns.append(
                        sorted(self._selector_column[literal] for literal in core)
                    )
        return _RerankPrep(
            signature=frozenset(active_blocks),
            blocked_sets=tuple(frozenset(cut_set) for cut_set in blocked),
            core_count=len(self._cores),
            usable=usable,
            exhausted=exhausted,
            index=index,
            disjoint_columns=disjoint_columns,
        )

    def _scaled_row(self, weights: Dict[str, float]) -> List[int]:
        """One scenario's scaled weights in event-column order."""
        return [self._scale_weight(weights[name]) for name in self._event_order]

    def _lower_bounds(
        self, prep: _RerankPrep, rows: Sequence[Sequence[int]]
    ) -> List[int]:
        """Per-scenario packing lower bound on the minimum hitting-set cost."""
        if prep.exhausted or not prep.disjoint_columns:
            return [0] * len(rows)
        return self._kernels.greedy_lower_bound(prep.disjoint_columns, rows)

    def _result_for(
        self,
        events: Tuple[str, ...],
        scaled_cost: int,
        weights: Dict[str, float],
        started: float,
        tier: str,
    ) -> IncrementalSolveResult:
        probability_weights = {name: weights[name] for name in events}
        return IncrementalSolveResult(
            events=events,
            scaled_cost=scaled_cost,
            cost=sum(probability_weights.values()),
            probability_weights=probability_weights,
            sat_calls=0,
            solve_time=time.perf_counter() - started,
            rerank=tier,
        )

    def _ranked_one(
        self,
        weights: Dict[str, float],
        blocked: Sequence[Tuple[str, ...]],
        prep: _RerankPrep,
        row: Sequence[int],
        lower_bound: int,
    ) -> Optional[IncrementalSolveResult]:
        """Resolve one batch scenario through the pool/certify/B&B/fallback ladder."""
        started = time.perf_counter()
        if prep.exhausted:
            self.solves += 1
            self.rerank_stats["pooled"] += 1
            return None

        # Pooled tier: the memoised hitting set for this block signature (the
        # previous scenario's optimum, in steady state).  When it still hits
        # every core, its cost attains the packing lower bound (so it is
        # optimal), it contains a pooled cut set and no blocking clause
        # forbids it, it is *provably* what the sequential loop would return:
        # the seeded branch-and-bound adopts an optimal seed unchanged, and
        # pool containment certifies the SAT call — zero oracle work.
        seed = self._hs_memo.get(prep.signature) if prep.usable else set()
        if seed is not None and prep.index is not None and prep.index.covers_all(seed):
            seed_events = tuple(
                sorted(self._var_events[abs(literal)] for literal in seed)
            )
            if self._admissible(seed_events, prep.blocked_sets) and self._contains_pooled(
                seed_events
            ):
                seed_score = sum(row[self._event_column[name]] for name in seed_events)
                if seed_score == lower_bound:
                    self._hs_memo[prep.signature] = set(seed)
                    self.solves += 1
                    self._register_candidate(seed_events)
                    self.rerank_stats["pooled"] += 1
                    return self._result_for(
                        seed_events, seed_score, weights, started, "pooled"
                    )

        # B&B tier: a stale seed, or a packing bound too loose to prove the
        # seed optimal — run the exact hitting-set search, exactly as the
        # sequential loop's first round would, then try to certify its result
        # without the SAT call.
        self.rerank_stats["bnb"] += 1
        scaled: Dict[Literal, int] = {
            selector: row[column] for selector, column in self._selector_column.items()
        }
        hitting_set, hs_cost = minimum_cost_hitting_set(
            prep.usable, scaled, seed=self._hs_memo.get(prep.signature)
        )
        hs_events = tuple(
            sorted(self._var_events[abs(literal)] for literal in hitting_set)
        )
        if self._contains_pooled(hs_events) and self._admissible(
            hs_events, prep.blocked_sets
        ):
            # Feasible (superset of a verified cut set) and block-admissible:
            # the sequential SAT call succeeds, and with strictly positive
            # scaled weights its model's true events are exactly the hitting
            # set — so this *is* the sequential result, SAT-free.
            self._hs_memo[prep.signature] = hitting_set
            self.solves += 1
            self._register_candidate(hs_events)
            self.rerank_stats["certified"] += 1
            return self._result_for(hs_events, hs_cost, weights, started, "certified")

        # Fallback: no SAT-free certificate — run the full core-discovery
        # loop.  ``_solve_impl`` was not passed any state from the ladder, so
        # its memo/core/pool evolution is identical to the sequential path.
        self.rerank_stats["fallback"] += 1
        result = self._solve_impl(weights, blocked)
        if result is not None:
            result = dataclasses.replace(result, rerank="fallback")
        return result

    def solve_batch(
        self,
        weights_seq: Sequence[Dict[str, float]],
        blocked: Sequence[Tuple[str, ...]] = (),
    ) -> List[Optional[IncrementalSolveResult]]:
        """Batched weight-only re-rank: results identical to a :meth:`solve` loop.

        Everything weight-independent is computed once per batch — the usable
        cores, their :class:`~repro.kernels.bitset.CoverageIndex` and a greedy
        disjoint-core packing — and the per-scenario packing lower bounds come
        from one call into the session's kernel suite.  Each scenario then
        walks the ladder in :meth:`_ranked_one`: **pooled** (seed proven
        optimal by the bound, zero SAT calls) → **certified** (one seeded B&B,
        zero SAT calls) → **fallback** (full sequential loop).

        The returned results — events, scaled cost, float cost, probability
        weights — are byte-identical to calling :meth:`solve` once per
        scenario in order, because every SAT-free tier fires only when the
        sequential outcome is provable: the seeded branch-and-bound is a
        deterministic function of (cores, weights, seed), scaled weights are
        strictly positive (so a SAT model's events equal the hitting set
        exactly), and pool membership certifies the oracle call.  Only the
        telemetry differs: ``sat_calls``/``solve_time`` reflect the work
        actually done, and ``rerank`` names the tier that resolved each
        scenario.  Raises the same exceptions the sequential loop would
        (:class:`BudgetExceededError` from the search budgets included).
        """
        with _trace.span(
            "maxsat.solve_batch", scenarios=len(weights_seq), blocked=len(blocked)
        ) as span:
            stats_before = dict(self.rerank_stats)
            calls_before = self.sat_calls
            results: List[Optional[IncrementalSolveResult]] = []
            if weights_seq:
                rows = [self._scaled_row(weights) for weights in weights_seq]
                prep = self._prepare_rerank(blocked)
                lower_bounds = self._lower_bounds(prep, rows)
                for position, weights in enumerate(weights_seq):
                    if prep.core_count != len(self._cores):
                        # A fallback discovered new cores: the coverage index
                        # and packing bounds are stale — rebuild.
                        prep = self._prepare_rerank(blocked)
                        lower_bounds = self._lower_bounds(prep, rows)
                    results.append(
                        self._ranked_one(
                            weights,
                            blocked,
                            prep,
                            rows[position],
                            lower_bounds[position],
                        )
                    )
            if span.is_recording:
                span.add("sat_calls", self.sat_calls - calls_before)
                for tier, count in self.rerank_stats.items():
                    span.add(tier, count - stats_before[tier])
                span.add(
                    "solutions", sum(1 for result in results if result is not None)
                )
            return results

    # -- introspection ---------------------------------------------------------

    @property
    def num_cores(self) -> int:
        return len(self._cores)

    @property
    def num_block_clauses(self) -> int:
        return len(self._block_vars)

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
            "block_clauses": len(self._block_vars),
            "learnt_clauses": self._solver.num_learnts,
            "num_vars": self.num_vars,
            "num_hard": self.num_hard,
            "encode_seconds": self.encode_time,
            "kernel": self._kernels.name,
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
