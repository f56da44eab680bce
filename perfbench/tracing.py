"""The traced run: per-layer spans recorded from outside the program.

:class:`Recorder` wraps public functions of each layer and restores them
afterwards.  A module-level function is patched under every name a
``repro`` module binds it to, since callers look it up in their own module
(``from x import f``); a method is patched on its class.  The kernel
callables are reached through :func:`repro.kernels.select`, whose wrapper
hands out a suite with wrapped kernels.

Wrappers are thread-safe: portfolio engines call ``CDCLSolver.solve`` from
their own threads.  Each thread keeps its own span stack, so a span's
parent is the innermost open span of the same thread, and a span's self
time is its duration minus the time its children cover.  Totals are kept
per layer; individual spans are kept in memory, up to a cap, and written
when the run ends.

The program's own spans (``analyze``, ``backend:*``, ``maxsat.solve*``) are
collected by installing a :class:`repro.observability.trace.Tracer`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import kernels as _kernels
from repro.api.session import AnalysisSession
from repro.bdd import probability as _bdd_probability
from repro.bdd.manager import BDDManager
from repro.core import encoder as _encoder
from repro.fta import formula as _formula
from repro.fta.tree import FaultTree
from repro.logic import tseitin as _tseitin
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.maxsat.portfolio import PortfolioSolver
from repro.monitoring.alerts import AlertEngine
from repro.monitoring.monitor import TreeMonitor
from repro.observability.trace import Tracer, use_tracer
from repro.sat.cdcl import CDCLSolver
from repro.scenarios import Scenario, SweepExecutor
from repro.scenarios import incremental as _incremental

__all__ = ["ENGINES", "PER_LAYER", "Recorder", "per_layer_metrics"]

#: Engines of the default portfolio, for the per-engine metrics.
ENGINES = ("rc2", "rc2-stratified", "linear-sat-unsat", "fu-malik")

#: Individual spans kept for the trace file; totals count every span.
MAX_STORED_SPANS = 50_000

#: Spans the program's own tracer may record in one phase.
MAX_TRACER_SPANS = 1_000_000

#: Rerank ladder rungs of ``IncrementalMaxSATSession.solve_batch``.  Every
#: scenario ends ``pooled``, ``certified`` or ``fallback``; ``bnb`` counts
#: the scenarios that entered the branch-and-bound on the way to the last two.
RUNGS = ("pooled", "certified", "bnb", "fallback")


class _Layer:
    """Running totals of one wrapped function."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Recorder:
    """Wraps layer functions, records spans and counters, restores on exit."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.reset()

    # -- recording ------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (patches stay installed)."""
        with self._lock:
            self.layers: Dict[str, _Layer] = defaultdict(_Layer)
            self.counters: Dict[str, float] = defaultdict(float)
            self.sessions: Dict[int, Tuple[IncrementalMaxSATSession, int, int]] = {}
            self.spans: List[Dict[str, Any]] = []
            self.dropped_spans = 0
            self._next_id = 0
            self._origin = time.perf_counter()

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[counter] += amount

    def note_session(self, session: IncrementalMaxSATSession) -> None:
        """Remember a solver session's latest core and pool sizes."""
        with self._lock:
            self.sessions[id(session)] = (session, session.num_cores, session.pool_size)

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> List[Any]:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [span_id, parent, layer, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: List[Any]) -> float:
        ended = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span_id, parent, layer, started, children_s = frame
        duration = ended - started
        if stack:
            stack[-1][4] += duration
        with self._lock:
            totals = self.layers[layer]
            totals.calls += 1
            totals.total_s += duration
            totals.self_s += duration - children_s
            if len(self.spans) < MAX_STORED_SPANS:
                self.spans.append(
                    {
                        "id": span_id,
                        "parent": parent,
                        "name": layer,
                        "thread": threading.get_ident(),
                        "start_s": started - self._origin,
                        "duration_s": duration,
                        "self_s": duration - children_s,
                    }
                )
            else:
                self.dropped_spans += 1
        return duration

    def wrap(
        self,
        layer: str,
        function: Callable[..., Any],
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """``function`` inside a span named ``layer``.

        ``before(args)`` runs first and its value is handed to
        ``after(recorder, args, result, duration, context)``, which runs
        only when the call returns normally.
        """

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            context = before(args) if before is not None else None
            frame = self._enter(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                duration = self._exit(frame)
            if after is not None:
                after(self, args, result, duration, context)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_function(self, function: Callable[..., Any], replacement: Any) -> None:
        """Rebind ``function`` to ``replacement`` in every ``repro`` module."""
        modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "repro"]
        bindings = [
            (module, attribute)
            for module in modules
            for attribute, value in vars(module).items()
            if value is function
        ]
        if not bindings:
            raise RuntimeError(f"no module binds {function.__qualname__}; update the layer table")
        for module, attribute in bindings:
            self._patch(module, attribute, replacement)

    def install(self) -> None:
        """Wrap every measured layer."""
        if self._patches:
            raise RuntimeError("recorder is already installed")
        try:
            for layer, function, before, after in _FUNCTIONS():
                self._patch_function(function, self.wrap(layer, function, before, after))
            for layer, cls, attribute, before, after in _METHODS():
                self._patch(cls, attribute, self.wrap(layer, vars(cls)[attribute], before, after))
            self._patch_function(_kernels.select, self._wrap_select(_kernels.select))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Recorder"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap_select(self, select: Callable[..., Any]) -> Callable[..., Any]:
        def after_batch(recorder: "Recorder", args: Tuple[Any, ...], *_: Any) -> None:
            recorder.add("kernels.eval_bdd_batch_rows", len(args[1]))

        @functools.wraps(select)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            suite = select(*args, **kwargs)
            return dataclasses.replace(
                suite,
                eval_bdd_batch=self.wrap(
                    "kernels.eval_bdd_batch", suite.eval_bdd_batch, after=after_batch
                ),
                score_candidates=self.wrap("kernels.score_candidates", suite.score_candidates),
                greedy_lower_bound=self.wrap("kernels.lower_bound", suite.greedy_lower_bound),
            )

        return wrapper

    # -- the program's own spans -------------------------------------------------

    @contextlib.contextmanager
    def tracing(self) -> Iterator[Tracer]:
        """Install a program tracer for the enclosed block."""
        tracer = Tracer(max_spans=MAX_TRACER_SPANS)
        with use_tracer(tracer):
            yield tracer


# -- hooks that read counts off arguments and results -------------------------------


def _after_encode(recorder: Recorder, args: Any, encoding: Any, *_: Any) -> None:
    recorder.add("core.hard_clauses", encoding.instance.num_hard)
    recorder.add("core.vars", encoding.instance.num_vars)


def _after_portfolio(recorder: Recorder, args: Any, report: Any, duration: float, _: Any) -> None:
    for engine, seconds in report.engine_times.items():
        recorder.add(f"maxsat.engine_s.{engine}", seconds)
    recorder.add(f"maxsat.wins.{report.winner}")
    recorder.add("maxsat.race_overhead_s", duration - report.engine_times.get(report.winner, 0.0))


def _after_sat(recorder: Recorder, args: Any, result: Any, *_: Any) -> None:
    recorder.add("sat.conflicts", result.conflicts)
    recorder.add("sat.decisions", result.decisions)


def _after_seed(recorder: Recorder, args: Any, collection: Any, *_: Any) -> None:
    recorder.add("scenarios.mcs", len(collection))


def _before_session(args: Tuple[Any, ...]) -> Tuple[int, Dict[str, int]]:
    session = args[0]
    return session.sat_calls, dict(session.rerank_stats)


def _after_session(
    recorder: Recorder, args: Any, result: Any, duration: float, before: Any
) -> None:
    session = args[0]
    sat_calls, rungs = before
    recorder.add("maxsat.sat_calls", session.sat_calls - sat_calls)
    for rung in RUNGS:
        recorder.add(f"maxsat.rerank.{rung}", session.rerank_stats[rung] - rungs[rung])
    recorder.note_session(session)


def _FUNCTIONS() -> List[Tuple[str, Callable[..., Any], Any, Any]]:
    """Module-level functions: (layer, function, before, after)."""
    return [
        ("fta.structure_function", _formula.structure_function, None, None),
        ("fta.success_function", _formula.success_function, None, None),
        ("logic.tseitin", _tseitin.tseitin_encode, None, None),
        ("logic.tseitin", _encoder.assemble_structure_cnf, None, None),
        ("core.encode", _encoder.encode_mpmcs, None, _after_encode),
        ("bdd.probability", _bdd_probability.probability_of_bdd, None, None),
        ("scenarios.seed_cut_sets", _incremental.seed_session_cut_sets, None, _after_seed),
    ]


def _METHODS() -> List[Tuple[str, type, str, Any, Any]]:
    """Methods: (layer, class, attribute, before, after)."""
    return [
        ("api.analyze", AnalysisSession, "analyze", None, None),
        ("fta.verify", FaultTree, "is_minimal_cut_set", None, None),
        ("maxsat.portfolio", PortfolioSolver, "solve_with_report", None, _after_portfolio),
        ("maxsat.session_build", IncrementalMaxSATSession, "__init__", None, None),
        ("maxsat.solve_tree", IncrementalMaxSATSession, "solve_tree", _before_session, _after_session),
        ("maxsat.solve_batch", IncrementalMaxSATSession, "solve_batch", _before_session, _after_session),
        ("sat.solve", CDCLSolver, "solve", None, _after_sat),
        ("bdd.compile", BDDManager, "from_fault_tree", None, None),
        ("scenarios.patch_apply", Scenario, "apply", None, None),
        ("scenarios.precompute_rerank", SweepExecutor, "precompute_rerank", None, None),
        ("scenarios.precompute_top_events", SweepExecutor, "precompute_top_events", None, None),
        ("scenarios.analyze_tree", SweepExecutor, "analyze_tree", None, None),
        ("monitoring.apply_update", TreeMonitor, "apply_update", None, None),
        ("monitoring.alerts", AlertEngine, "evaluate", None, None),
    ]


# -- per-layer metrics ---------------------------------------------------------------


def _tracer_facade(tracer: Tracer) -> Tuple[float, float, float]:
    """Self time of the ``analyze`` spans net of backend runs, and cache counts."""
    self_s = hits = misses = 0.0
    pending = list(tracer.roots)
    while pending:
        span = pending.pop()
        pending.extend(span.children)
        if span.name != "analyze":
            continue
        backends = sum(
            child.duration_s for child in span.children if child.name.startswith("backend:")
        )
        self_s += span.duration_s - backends
        hits += span.counters.get("cache_hits", 0)
        misses += span.counters.get("cache_misses", 0)
    return self_s, hits, misses


def _per_layer_table() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in a fixed order."""
    table = [
        ("api.facade_self_s", "s/op"),
        ("api.cache_hits", "count/op"),
        ("api.cache_misses", "count/op"),
        ("fta.structure_function_s", "s/op"),
        ("fta.success_function_s", "s/op"),
        ("fta.verify_s", "s/op"),
        ("fta.verify_calls", "count/op"),
        ("logic.tseitin_s", "s/op"),
        ("core.encode_s", "s/op"),
        ("core.encode_calls", "count/op"),
        ("core.instance_self_s", "s/op"),
        ("core.hard_clauses", "count"),
        ("core.vars", "count"),
        ("maxsat.portfolio_s", "s/op"),
        ("maxsat.portfolio_calls", "count/op"),
    ]
    table += [(f"maxsat.engine_s.{engine}", "s/op") for engine in ENGINES]
    table += [(f"maxsat.wins.{engine}", "count/op") for engine in ENGINES]
    table += [
        ("maxsat.race_overhead_s", "s/op"),
        ("maxsat.session_build_s", "s/op"),
        ("maxsat.solve_tree_s", "s/op"),
        ("maxsat.solve_tree_calls", "count/op"),
        ("maxsat.solve_batch_s", "s/op"),
        ("maxsat.sat_calls_per_op", "count/op"),
    ]
    table += [(f"maxsat.rerank.{rung}", "count/op") for rung in RUNGS]
    table += [
        ("maxsat.pooled_ratio", "ratio"),
        ("maxsat.cores", "count"),
        ("maxsat.pool_candidates", "count"),
        ("sat.calls", "count/op"),
        ("sat.solve_s", "s/op"),
        ("sat.conflicts", "count/op"),
        ("sat.decisions", "count/op"),
        ("bdd.compile_s", "s/op"),
        ("bdd.compiles", "count/op"),
        ("bdd.probability_s", "s/op"),
        ("bdd.probability_calls", "count/op"),
        ("kernels.eval_bdd_batch_s", "s/op"),
        ("kernels.eval_bdd_batch_rows", "count/op"),
        ("kernels.score_candidates_s", "s/op"),
        ("kernels.lower_bound_s", "s/op"),
        ("scenarios.seed_cut_sets_s", "s/op"),
        ("scenarios.mcs", "count"),
        ("scenarios.patch_apply_s", "s/op"),
        ("scenarios.precompute_rerank_s", "s/op"),
        ("scenarios.precompute_top_events_s", "s/op"),
        ("scenarios.analyze_tree_s", "s/op"),
        ("monitoring.apply_self_s", "s/op"),
        ("monitoring.alerts_s", "s/op"),
        ("bench.trace_overhead_ratio", "ratio"),
    ]
    return table


#: ``(name, unit)`` of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(_per_layer_table())


def per_layer_metrics(
    recorder: Recorder, tracer: Tracer, operations: int, overhead_ratio: float
) -> Dict[str, Dict[str, Any]]:
    """The per-layer metrics of one traced phase of ``operations`` operations.

    Times and counts marked ``/op`` are totals divided by the operations
    the phase completed, so phases of different length compare.  Sizes
    (``count``) are means per encoding, seeding or solver session.
    """
    ops = max(operations, 1)
    layers, counters = recorder.layers, recorder.counters

    def total(layer: str) -> float:
        return layers[layer].total_s if layer in layers else 0.0

    def calls(layer: str) -> int:
        return layers[layer].calls if layer in layers else 0

    def mean(counter: str, layer: str) -> float:
        return counters.get(counter, 0.0) / calls(layer) if calls(layer) else 0.0

    facade_self, cache_hits, cache_misses = _tracer_facade(tracer)
    rungs = {rung: counters.get(f"maxsat.rerank.{rung}", 0.0) for rung in RUNGS}
    ladder = rungs["pooled"] + rungs["certified"] + rungs["fallback"]
    sessions = list(recorder.sessions.values())
    values: Dict[str, float] = {
        "api.facade_self_s": facade_self / ops,
        "api.cache_hits": cache_hits / ops,
        "api.cache_misses": cache_misses / ops,
        "fta.structure_function_s": total("fta.structure_function") / ops,
        "fta.success_function_s": total("fta.success_function") / ops,
        "fta.verify_s": total("fta.verify") / ops,
        "fta.verify_calls": calls("fta.verify") / ops,
        "logic.tseitin_s": total("logic.tseitin") / ops,
        "core.encode_s": total("core.encode") / ops,
        "core.encode_calls": calls("core.encode") / ops,
        "core.instance_self_s": (layers["core.encode"].self_s if "core.encode" in layers else 0.0) / ops,
        "core.hard_clauses": mean("core.hard_clauses", "core.encode"),
        "core.vars": mean("core.vars", "core.encode"),
        "maxsat.portfolio_s": total("maxsat.portfolio") / ops,
        "maxsat.portfolio_calls": calls("maxsat.portfolio") / ops,
        "maxsat.race_overhead_s": counters.get("maxsat.race_overhead_s", 0.0) / ops,
        "maxsat.session_build_s": total("maxsat.session_build") / ops,
        "maxsat.solve_tree_s": total("maxsat.solve_tree") / ops,
        "maxsat.solve_tree_calls": calls("maxsat.solve_tree") / ops,
        "maxsat.solve_batch_s": total("maxsat.solve_batch") / ops,
        "maxsat.sat_calls_per_op": counters.get("maxsat.sat_calls", 0.0) / ops,
        "maxsat.pooled_ratio": rungs["pooled"] / ladder if ladder else 0.0,
        "maxsat.cores": sum(cores for _, cores, _ in sessions) / len(sessions) if sessions else 0.0,
        "maxsat.pool_candidates": sum(pool for _, _, pool in sessions) / len(sessions) if sessions else 0.0,
        "sat.calls": calls("sat.solve") / ops,
        "sat.solve_s": total("sat.solve") / ops,
        "sat.conflicts": counters.get("sat.conflicts", 0.0) / ops,
        "sat.decisions": counters.get("sat.decisions", 0.0) / ops,
        "bdd.compile_s": total("bdd.compile") / ops,
        "bdd.compiles": calls("bdd.compile") / ops,
        "bdd.probability_s": total("bdd.probability") / ops,
        "bdd.probability_calls": calls("bdd.probability") / ops,
        "kernels.eval_bdd_batch_s": total("kernels.eval_bdd_batch") / ops,
        "kernels.eval_bdd_batch_rows": counters.get("kernels.eval_bdd_batch_rows", 0.0) / ops,
        "kernels.score_candidates_s": total("kernels.score_candidates") / ops,
        "kernels.lower_bound_s": total("kernels.lower_bound") / ops,
        "scenarios.seed_cut_sets_s": total("scenarios.seed_cut_sets") / ops,
        "scenarios.mcs": mean("scenarios.mcs", "scenarios.seed_cut_sets"),
        "scenarios.patch_apply_s": total("scenarios.patch_apply") / ops,
        "scenarios.precompute_rerank_s": total("scenarios.precompute_rerank") / ops,
        "scenarios.precompute_top_events_s": total("scenarios.precompute_top_events") / ops,
        "scenarios.analyze_tree_s": total("scenarios.analyze_tree") / ops,
        "monitoring.apply_self_s": (
            layers["monitoring.apply_update"].self_s if "monitoring.apply_update" in layers else 0.0
        ) / ops,
        "monitoring.alerts_s": total("monitoring.alerts") / ops,
        "bench.trace_overhead_ratio": overhead_ratio,
    }
    for rung in RUNGS:
        values[f"maxsat.rerank.{rung}"] = rungs[rung] / ops
    for engine in ENGINES:
        values[f"maxsat.engine_s.{engine}"] = counters.get(f"maxsat.engine_s.{engine}", 0.0) / ops
        values[f"maxsat.wins.{engine}"] = counters.get(f"maxsat.wins.{engine}", 0.0) / ops
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
