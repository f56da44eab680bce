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

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.encoder import MPMCSEncoding, encode_mpmcs
from repro.core.weights import probability_of_cut_set
from repro.exceptions import AnalysisError, NoCutSetError
from repro.fta.tree import FaultTree
from repro.maxsat.engine import MaxSATEngine
from repro.maxsat.instance import DEFAULT_PRECISION
from repro.maxsat.portfolio import PortfolioReport, PortfolioSolver
from repro.maxsat.result import MaxSATResult, MaxSATStatus

__all__ = ["MPMCSResult", "MPMCSSolver", "find_mpmcs"]


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


class MPMCSSolver:
    """Compute Maximum Probability Minimal Cut Sets with MaxSAT.

    Parameters
    ----------
    engines:
        MaxSAT engine configurations for the portfolio (Step 5).  ``None``
        selects the default heterogeneous line-up.
    mode:
        Portfolio execution mode: ``"sequential"`` (default, RC2 first) or
        ``"process"`` (the engines race in parallel worker processes).
    single_engine:
        When given, the portfolio is bypassed and this engine is used alone —
        the configuration exercised by the portfolio ablation benchmark.
    precision:
        Integer scaling applied to the ``-log`` probability weights.

    Every returned cut set is checked to be a minimal cut set of the fault
    tree; an :class:`AnalysisError` is raised otherwise.  The check is linear
    in the cut-set size and catches encoding or solver regressions early.
    """

    def __init__(
        self,
        *,
        engines: Optional[Sequence[MaxSATEngine]] = None,
        mode: str = "sequential",
        single_engine: Optional[MaxSATEngine] = None,
        precision: int = DEFAULT_PRECISION,
    ) -> None:
        self.precision = precision
        self.single_engine = single_engine
        self.portfolio = None if single_engine is not None else PortfolioSolver(engines, mode=mode)

    # -- public API ----------------------------------------------------------------

    def solve(self, tree: FaultTree) -> MPMCSResult:
        """Run the full six-step pipeline on ``tree``."""
        start = time.perf_counter()
        # Steps 1-4: logical transformation, CNF conversion, log-space weights,
        # WPMaxSAT instance.
        encoding = encode_mpmcs(tree, precision=self.precision)
        # Steps 5-6: MaxSAT resolution and reverse log-space transformation.
        result = self.solve_encoding(tree, encoding)
        result.total_time = time.perf_counter() - start
        return result

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
        return self._assemble_result(tree, encoding, maxsat_result, report, start)

    def optima(
        self, tree: FaultTree, encoding: MPMCSEncoding
    ) -> Callable[[Sequence[Tuple[str, ...]]], Optional[MPMCSResult]]:
        """The cold ``solve`` callable of :func:`~repro.core.topk.rank_optima`.

        Blocks go into one working copy of ``encoding`` (a cached artifact,
        say), which gains only the newly found ones per call.
        """
        working = encoding
        blocks = 0

        def solve(found: Sequence[Tuple[str, ...]]) -> Optional[MPMCSResult]:
            nonlocal working, blocks
            if len(found) > blocks and working is encoding:
                working = dataclasses.replace(encoding, instance=encoding.instance.copy())
            for events in found[blocks:]:
                working.instance.add_hard([-encoding.event_vars[name] for name in events])
            blocks = len(found)
            try:
                return self.solve_encoding(tree, working)
            except NoCutSetError:
                return None

        return solve

    # -- internals --------------------------------------------------------------------

    def _assemble_result(
        self,
        tree: FaultTree,
        encoding: MPMCSEncoding,
        maxsat_result: MaxSATResult,
        report: Optional[PortfolioReport],
        start: float,
    ) -> MPMCSResult:
        if maxsat_result.status is MaxSATStatus.UNSATISFIABLE:
            raise NoCutSetError(
                f"fault tree {tree.name!r} has no cut set: the top event cannot occur"
            )
        if maxsat_result.status is not MaxSATStatus.OPTIMUM or maxsat_result.model is None:
            raise AnalysisError(
                f"MaxSAT resolution did not reach an optimum for fault tree {tree.name!r} "
                f"(status: {maxsat_result.status.value})"
            )

        # Step 6: reverse log-space transformation.
        cut_set = encoding.cut_set_from_model(maxsat_result.model)
        if not tree.is_minimal_cut_set(cut_set):
            raise AnalysisError(
                f"internal error: extracted set {cut_set} is not a minimal cut set of "
                f"{tree.name!r}; please report this as a bug"
            )

        probabilities = tree.probabilities()
        probability = probability_of_cut_set(cut_set, probabilities)
        cost = sum(encoding.weights[name] for name in cut_set)

        return MPMCSResult(
            tree_name=tree.name,
            events=cut_set,
            probability=probability,
            cost=cost,
            weights={name: encoding.weights[name] for name in cut_set},
            engine=maxsat_result.engine,
            solve_time=maxsat_result.solve_time,
            total_time=time.perf_counter() - start,
            num_vars=encoding.instance.num_vars,
            num_hard=encoding.instance.num_hard,
            num_soft=encoding.instance.num_soft,
            num_aux_vars=encoding.num_aux_vars,
            portfolio=report,
        )


def find_mpmcs(tree: FaultTree, **kwargs: object) -> MPMCSResult:
    """Convenience wrapper: ``MPMCSSolver(**kwargs).solve(tree)``."""
    return MPMCSSolver(**kwargs).solve(tree)  # type: ignore[arg-type]
