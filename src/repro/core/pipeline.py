"""The six-step MPMCS resolution pipeline (paper Section III).

:class:`MPMCSSolver` wires together the fault-tree formula transformation, the
Tseitin CNF conversion, the log-space weight transformation, the Weighted
Partial MaxSAT encoding, the parallel portfolio resolution and the reverse
log-space transformation, and returns an :class:`MPMCSResult` describing the
Maximum Probability Minimal Cut Set of a fault tree.

Example
-------
.. code-block:: python

    from repro.workloads.library import fire_protection_system
    from repro.core import MPMCSSolver

    tree = fire_protection_system()
    result = MPMCSSolver().solve(tree)
    assert result.events == ("x1", "x2")
    assert abs(result.probability - 0.02) < 1e-9
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.encoder import MPMCSEncoding, encode_mpmcs, event_weight
from repro.core.weights import probability_of_cut_set
from repro.exceptions import AnalysisError, NoCutSetError
from repro.fta.compiled import CompiledStructure, Skeleton
from repro.fta.gates import Gate, GateType
from repro.fta.tree import FaultTree
from repro.maxsat.engine import MaxSATEngine
from repro.maxsat.portfolio import PortfolioReport, PortfolioSolver
from repro.maxsat.result import MaxSATResult, MaxSATStatus

__all__ = ["MODULE_RULE_ENGINE", "MPMCSResult", "MPMCSSolver", "ModuleOptima", "find_mpmcs"]


@dataclass
class MPMCSResult:
    """Outcome of an MPMCS analysis.

    Attributes
    ----------
    tree_name:
        Name of the analysed fault tree.
    events:
        The Maximum Probability Minimal Cut Set, sorted by event name.
    probability:
        Joint probability of the cut set (product of event probabilities,
        independence assumed — the paper's ``PF(t)``).
    cost:
        The MaxSAT objective value, i.e. the total ``-log`` weight of the cut
        set's events.
    weights:
        Per-event ``-log`` weights of the cut-set members (Table I values for
        the events in the solution).
    engine:
        Name of the MaxSAT engine that produced the winning solution.
    solve_time:
        Wall-clock seconds spent in the MaxSAT resolution step (Step 5).
    total_time:
        Wall-clock seconds of the whole pipeline (Steps 1–6).
    num_vars / num_hard / num_soft / num_aux_vars:
        Size of the encoded MaxSAT instance, reported for the scalability
        benchmarks.
    portfolio:
        The full per-engine report when the parallel portfolio was used.
    """

    tree_name: str
    events: Tuple[str, ...]
    probability: float
    cost: float
    weights: Dict[str, float] = field(default_factory=dict)
    engine: str = ""
    solve_time: float = 0.0
    total_time: float = 0.0
    num_vars: int = 0
    num_hard: int = 0
    num_soft: int = 0
    num_aux_vars: int = 0
    portfolio: Optional[PortfolioReport] = None

    @property
    def size(self) -> int:
        """Number of events in the cut set."""
        return len(self.events)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dictionary form used by the JSON report and the CLI."""
        return {
            "tree": self.tree_name,
            "mpmcs": list(self.events),
            "probability": self.probability,
            "cost": self.cost,
            "weights": dict(self.weights),
            "engine": self.engine,
            "solve_time_s": self.solve_time,
            "total_time_s": self.total_time,
            "instance": {
                "variables": self.num_vars,
                "hard_clauses": self.num_hard,
                "soft_clauses": self.num_soft,
                "auxiliary_variables": self.num_aux_vars,
            },
        }


#: Engine and portfolio winner reported when every module is solved by rule.
MODULE_RULE_ENGINE = "modules"

#: ``solve(skeleton, value)`` of :meth:`ModuleOptima.update`: the leaves a
#: module's optimum takes, given each leaf's ``(objective, weight)``, and the
#: report of the solve that found them.
SkeletonSolve = Callable[
    [Skeleton, Dict[str, Tuple[int, float]]], Tuple[Sequence[str], PortfolioReport]
]


class ModuleOptima:
    """The optimum of every independent module of one structure, kept up to date.

    :meth:`update` brings the optima in line with a tree's probabilities.
    Only the events whose probability changed since the previous update are
    re-weighed, and only the modules above them are solved again, bottom-up:
    a module whose solve leaves its objective unchanged stops the climb.  A
    first update, or one for a tree of another structure, solves every
    module.  A cold analysis uses a fresh instance; the ``maxsat`` backend's
    warm route keeps one per structure across the probability-only trees of
    a batch.
    """

    def __init__(self, structure: CompiledStructure) -> None:
        self._reset(structure)

    def _reset(self, structure: CompiledStructure) -> None:
        self.structure = structure
        #: The index, in ``structure.modules``, of the skeleton that holds each
        #: node other than the top; built by the first update that keeps
        #: earlier optima.
        self._parent: Optional[Dict[str, int]] = None
        self._probabilities: Dict[str, float] = {}
        #: Each event's ``-log`` weight.
        self.weights: Dict[str, float] = {}
        #: The ``(objective, weight)`` of every event and of each module's
        #: optimum, and the leaves of its skeleton each module's optimum takes.
        self._value: Dict[str, Tuple[int, float]] = {}
        self._chosen: Dict[str, Sequence[str]] = {}

    def update(self, tree: FaultTree, solve: SkeletonSolve) -> List[PortfolioReport]:
        """Bring every module's optimum in line with ``tree``.

        A module whose root's children are all leaves takes its optimum by
        rule (:func:`_optimum_by_rule`); any other goes to ``solve``.  Returns
        the reports of the solves made.  A failed update forgets every
        optimum, so the next one starts afresh.
        """
        structure = tree.compiled()
        if structure is not self.structure:
            self._reset(structure)
        try:
            return self._update(tree, solve)
        except BaseException:
            self._reset(structure)
            raise

    def _update(self, tree: FaultTree, solve: SkeletonSolve) -> List[PortfolioReport]:
        modules = self.structure.modules
        ranks = self.structure.event_ranks
        count = len(ranks)
        value = self._value
        # A first update solves every module; a later one only those above a
        # change.  Skeletons are numbered bottom-up and a sorted list is a
        # heap, so either way a module is solved after every sub-module below it.
        fresh = not self._chosen
        pending: List[int] = list(range(len(modules))) if fresh else []
        queued: Set[int] = set()

        def touch(name: str) -> None:
            if self._parent is None:
                self._parent = {
                    node: index
                    for index, skeleton in enumerate(modules)
                    for node in skeleton.order[:-1]
                }
            index = self._parent.get(name)
            if index is not None and index not in queued:
                queued.add(index)
                heapq.heappush(pending, index)

        for name, event in tree.events.items():
            probability = event.probability
            if self._probabilities.get(name) != probability:
                weight, objective = event_weight(probability, ranks[name], count)
                self._probabilities[name] = probability
                self.weights[name] = weight
                value[name] = (objective, weight)
                if not fresh:
                    touch(name)
        reports: List[PortfolioReport] = []
        while pending:
            skeleton = modules[heapq.heappop(pending)]
            if skeleton.by_rule:
                leaves = _optimum_by_rule(skeleton.gates[-1], value)
            else:
                leaves, report = solve(skeleton, value)
                reports.append(report)
            self._chosen[skeleton.root] = leaves
            optimum = (
                sum(value[leaf][0] for leaf in leaves),
                sum(value[leaf][1] for leaf in leaves),
            )
            if value.get(skeleton.root) != optimum:
                value[skeleton.root] = optimum
                if not fresh:
                    touch(skeleton.root)
        return reports

    def optimum(self) -> Tuple[Tuple[str, ...], int, float]:
        """The top's optimal cut set (sorted), its objective and its weight."""
        top = self.structure.order[self.structure.top]
        cut_set: List[str] = []
        stack = [top]
        while stack:
            name = stack.pop()
            if name in self._chosen:
                stack.extend(self._chosen[name])
            else:
                cut_set.append(name)
        objective, weight = self._value[top]
        return tuple(sorted(cut_set)), objective, weight


class MPMCSSolver:
    """Compute Maximum Probability Minimal Cut Sets with MaxSAT.

    Parameters
    ----------
    engines:
        MaxSAT engine configurations for the portfolio (Step 5).  ``None``
        selects :func:`~repro.maxsat.portfolio.default_engines`: RC2, then
        the implicit hitting set engine.
    mode:
        Portfolio execution mode: ``"sequential"`` (default; RC2 answers and
        the next engine runs only if it is inconclusive) or ``"process"``
        (the engines race in parallel worker processes).
    single_engine:
        When given, the portfolio is bypassed and this engine is used alone —
        the configuration exercised by the portfolio ablation benchmark.

    With the portfolio, :meth:`solve` works module by module.  The MaxSAT
    objective (:func:`~repro.maxsat.instance.objective_weight`) is additive
    over disjoint event sets and no two sets tie, so the optimum of an
    independent module follows from the optima of its maximal proper
    sub-modules (:attr:`~repro.fta.compiled.CompiledStructure.modules`).
    The modules are solved bottom-up: one whose root's children are all
    leaves takes its optimum by rule (AND: every child; OR: the cheapest
    child; k-of-n: the k cheapest children), and every other one takes one
    portfolio solve over its skeleton, in which each sub-module is a single
    pseudo-event weighted by its optimum's objective.  The result is the
    whole-tree optimum, found with fewer and smaller solves.  With
    ``single_engine``, :meth:`solve` solves one whole-tree encoding.

    Every returned cut set is checked to be a minimal cut set of the fault
    tree; an :class:`AnalysisError` is raised otherwise.  The check is one
    bit-parallel pass over the compiled tree
    (:meth:`~repro.fta.tree.FaultTree.is_minimal_cut_set`) and catches
    encoding or solver regressions early.
    """

    def __init__(
        self,
        *,
        engines: Optional[Sequence[MaxSATEngine]] = None,
        mode: str = "sequential",
        single_engine: Optional[MaxSATEngine] = None,
    ) -> None:
        self.single_engine = single_engine
        self.portfolio = None if single_engine is not None else PortfolioSolver(engines, mode=mode)

    # -- public API ----------------------------------------------------------------

    def solve(self, tree: FaultTree) -> MPMCSResult:
        """Run the full six-step pipeline on ``tree``, module by module
        unless ``single_engine`` is set (see the class docstring)."""
        start = time.perf_counter()
        if self.portfolio is None:
            # Steps 1-4 over the whole tree, then Steps 5-6.
            result = self.solve_encoding(tree, encode_mpmcs(tree))
        else:
            result = self.solve_modules(tree, ModuleOptima(tree.compiled()))
        result.total_time = time.perf_counter() - start
        return result

    def solve_modules(self, tree: FaultTree, optima: ModuleOptima) -> MPMCSResult:
        """Steps 3-6 module by module: ``optima`` brought in line with
        ``tree`` (:meth:`ModuleOptima.update`), the skeletons that need a
        search solved by the portfolio.  The reported instance size is the
        whole-tree encoding's."""
        start = time.perf_counter()
        reports = optima.update(
            tree, lambda skeleton, value: self._solve_skeleton(tree, skeleton, value)
        )
        cut_set, objective, weight = optima.optimum()
        report = _merged_report(reports, objective, weight)
        cnf = optima.structure.cnf
        return self._result(
            tree,
            cut_set,
            optima.weights,
            report.result,
            report,
            start,
            (cnf.instance.num_vars, cnf.instance.num_hard, len(optima.weights), cnf.num_aux_vars),
        )

    def solve_encoding(
        self, tree: FaultTree, encoding: MPMCSEncoding
    ) -> MPMCSResult:
        """Solve an already-built encoding (Steps 5-6)."""
        start = time.perf_counter()
        report: Optional[PortfolioReport] = None
        if self.single_engine is not None:
            maxsat_result = self.single_engine.solve(encoding.instance)
        else:
            assert self.portfolio is not None
            report = self.portfolio.solve_with_report(encoding.instance)
            maxsat_result = report.result
        instance = encoding.instance
        return self._result(
            tree,
            encoding.cut_set_from_model(self._model(tree, maxsat_result)),
            encoding.weights,
            maxsat_result,
            report,
            start,
            (instance.num_vars, instance.num_hard, instance.num_soft, encoding.num_aux_vars),
        )

    def optima(
        self, tree: FaultTree
    ) -> Callable[[Sequence[Tuple[str, ...]]], Optional[MPMCSResult]]:
        """The cold ``solve`` callable of :func:`~repro.core.topk.rank_optima`.

        The first, unblocked call is :meth:`solve`.  The first blocked call
        builds the whole-tree encoding (:func:`encode_mpmcs`), which the
        callable owns; each blocked call adds the blocking clauses of the
        newly found cut sets to it and solves it.
        """
        encoding: Optional[MPMCSEncoding] = None
        blocks = 0

        def solve(found: Sequence[Tuple[str, ...]]) -> Optional[MPMCSResult]:
            nonlocal encoding, blocks
            try:
                if not found:
                    return self.solve(tree)
                if encoding is None:
                    encoding = encode_mpmcs(tree)
                for events in found[blocks:]:
                    encoding.instance.add_hard([-encoding.event_vars[name] for name in events])
                blocks = len(found)
                return self.solve_encoding(tree, encoding)
            except NoCutSetError:
                return None

        return solve

    # -- internals --------------------------------------------------------------------

    def _solve_skeleton(
        self, tree: FaultTree, skeleton: Skeleton, value: Dict[str, Tuple[int, float]]
    ) -> Tuple[List[str], PortfolioReport]:
        """One portfolio solve over a module's skeleton; returns the leaves it takes."""
        assert self.portfolio is not None
        cnf = skeleton.cnf
        instance = cnf.instance.copy()
        for leaf, var in cnf.event_vars.items():
            scaled, weight = value[leaf]
            instance.add_soft([-var], weight, label=leaf, scaled_weight=scaled)
        report = self.portfolio.solve_with_report(instance)
        model = self._model(tree, report.result)
        return [leaf for leaf, var in cnf.event_vars.items() if model.get(var, False)], report

    @staticmethod
    def _model(tree: FaultTree, maxsat_result: MaxSATResult) -> Dict[int, bool]:
        """The optimal model of a solve, or the error its status calls for."""
        if maxsat_result.status is MaxSATStatus.UNSATISFIABLE:
            raise NoCutSetError(
                f"fault tree {tree.name!r} has no cut set: the top event cannot occur"
            )
        if maxsat_result.status is not MaxSATStatus.OPTIMUM or maxsat_result.model is None:
            raise AnalysisError(
                f"MaxSAT resolution did not reach an optimum for fault tree {tree.name!r} "
                f"(status: {maxsat_result.status.value})"
            )
        return maxsat_result.model

    @staticmethod
    def _result(
        tree: FaultTree,
        cut_set: Tuple[str, ...],
        weights: Dict[str, float],
        maxsat_result: MaxSATResult,
        report: Optional[PortfolioReport],
        start: float,
        sizes: Tuple[int, int, int, int],
    ) -> MPMCSResult:
        """Step 6: the checked cut set and its reverse log-space transformation.

        ``sizes`` are the whole-tree encoding's variables, hard and soft
        clauses and auxiliary variables.
        """
        if not tree.is_minimal_cut_set(cut_set):
            raise AnalysisError(
                f"internal error: extracted set {cut_set} is not a minimal cut set of "
                f"{tree.name!r}; please report this as a bug"
            )
        num_vars, num_hard, num_soft, num_aux_vars = sizes
        return MPMCSResult(
            tree_name=tree.name,
            events=cut_set,
            probability=probability_of_cut_set(cut_set, tree.probabilities()),
            cost=sum(weights[name] for name in cut_set),
            weights={name: weights[name] for name in cut_set},
            engine=maxsat_result.engine,
            solve_time=maxsat_result.solve_time,
            total_time=time.perf_counter() - start,
            num_vars=num_vars,
            num_hard=num_hard,
            num_soft=num_soft,
            num_aux_vars=num_aux_vars,
            portfolio=report,
        )


def _optimum_by_rule(gate: Gate, value: Dict[str, Tuple[int, float]]) -> Sequence[str]:
    """The children a module root over independent children takes in its optimum.

    The children's event sets are disjoint, so their optima add up: an AND
    gate takes every child, an OR gate its cheapest child and a k-of-n gate
    its k cheapest children (no two children cost the same).
    """
    if gate.gate_type is GateType.AND:
        return gate.children
    if gate.gate_type is GateType.OR:
        return [min(gate.children, key=lambda child: value[child][0])]
    return sorted(gate.children, key=lambda child: value[child][0])[: gate.k]


def _merged_report(
    reports: Sequence[PortfolioReport], cost: int, float_cost: float
) -> PortfolioReport:
    """One report for a modular solve: its skeleton solves' engine times summed.

    The winner names the skeleton solves' winners, or
    :data:`MODULE_RULE_ENGINE` when every module was solved by rule.
    """
    times: Dict[str, float] = {}
    statuses: Dict[str, str] = {}
    for report in reports:
        for name, seconds in report.engine_times.items():
            times[name] = times.get(name, 0.0) + seconds
        statuses.update(report.engine_statuses)
    winner = "+".join(dict.fromkeys(report.winner for report in reports)) or MODULE_RULE_ENGINE
    result = MaxSATResult(
        MaxSATStatus.OPTIMUM,
        cost=cost,
        float_cost=float_cost,
        engine=winner,
        solve_time=sum((report.result.solve_time for report in reports), 0.0),
        sat_calls=sum(report.result.sat_calls for report in reports),
        conflicts=sum(report.result.conflicts for report in reports),
    )
    return PortfolioReport(
        winner=winner,
        result=result,
        engine_times=times,
        engine_statuses=statuses,
        total_time=sum((report.total_time for report in reports), 0.0),
    )


def find_mpmcs(tree: FaultTree, **kwargs: object) -> MPMCSResult:
    """Convenience wrapper: ``MPMCSSolver(**kwargs).solve(tree)``."""
    return MPMCSSolver(**kwargs).solve(tree)  # type: ignore[arg-type]
