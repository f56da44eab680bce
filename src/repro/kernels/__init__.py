"""Dispatchable compute kernels for the library's hot inner loops.

The analysis layers above this package (BDD evaluation, SAT propagation, the
hitting-set search, sweeps, monitoring) are pure-python by design; this
package concentrates their hot loops behind one **dispatch seam** so a single
choice — made once, at session construction — selects the fastest available
implementation *tier* without changing any semantics:

``numpy``
    Vectorised batch kernels (scenario-grid BDD evaluation as one forward
    pass per node over the whole grid; the MaxSAT re-rank's packing lower
    bound as one column-wise ``min`` per core).  Only available when numpy
    is importable and not disabled via ``REPRO_NO_NUMPY=1``.
``python``
    Plain-list reference implementation: the tier used when numpy is absent,
    and the oracle the test suite compares the numpy tier against.

All tiers perform the *identical IEEE-754 operation sequence* per BDD node
(``p * P(high) + (1 - p) * P(low)`` in children-first order), so results are
bit-for-bit equal across tiers — canonical reports do not depend on which
tier ran.  The MaxSAT re-rank kernels (:mod:`repro.kernels.rerank`) operate
on the solver's *scaled integer* weights and are exact on every tier by
construction.

Selection: :func:`select` resolves ``None``/``"auto"`` to numpy when it is
available and to the python reference otherwise; ``analyze --kernel`` /
``AnalysisSession(kernel_tier=...)`` pick a tier explicitly.  The chosen tier
is surfaced in ``AnalysisReport.profile["kernel"]`` and ``analyze --profile``
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.kernels import bdd_eval, rerank
from repro.numerics import HAVE_NUMPY

__all__ = [
    "KernelSuite",
    "available_tiers",
    "batch_probability_of_bdd",
    "select",
]


@dataclass(frozen=True)
class KernelSuite:
    """The kernel implementations of one tier, resolved once via :func:`select`."""

    name: str
    #: Batch BDD evaluation: (flat form, per-scenario probability rows in
    #: ``flat.events`` order) -> per-scenario P(top) floats.
    eval_bdd_batch: Callable[..., List[float]]
    #: Candidate scoring: (candidate event-index lists, scenarios×events
    #: scaled-weight rows) -> candidates×scenarios integer score matrix.  No
    #: library code calls it any more; the field stays because the
    #: benchmark's tracing wrapper rebuilds the suite by field name, and it
    #: can go once a benchmark-only change drops that wrapper.
    score_candidates: Callable[..., List[List[int]]]
    #: Disjoint-core packing bound: (disjoint core event-index lists,
    #: scaled-weight rows) -> per-scenario hitting-set cost lower bound.
    greedy_lower_bound: Callable[..., List[int]]


_SUITES = {
    "python": KernelSuite(
        name="python",
        eval_bdd_batch=bdd_eval.eval_bdd_batch_python,
        score_candidates=rerank.score_candidates_python,
        greedy_lower_bound=rerank.greedy_lower_bound_python,
    ),
    "numpy": KernelSuite(
        name="numpy",
        eval_bdd_batch=bdd_eval.eval_bdd_batch_numpy,
        score_candidates=rerank.score_candidates_numpy,
        greedy_lower_bound=rerank.greedy_lower_bound_numpy,
    ),
}

_PREFERENCE = ("numpy", "python")


def available_tiers() -> Tuple[str, ...]:
    """Usable tiers on this interpreter, fastest first."""
    return _PREFERENCE if HAVE_NUMPY else _PREFERENCE[1:]


def select(tier: Optional[str] = None) -> KernelSuite:
    """Resolve a kernel tier name to its :class:`KernelSuite`.

    ``None`` or ``"auto"`` picks the fastest available tier.  Explicit names
    are validated: requesting ``"numpy"`` without numpy raises
    :class:`~repro.exceptions.ConfigurationError` rather than silently
    downgrading.
    """
    if tier is None or tier == "auto":
        return _SUITES[available_tiers()[0]]
    if tier not in _SUITES:
        raise ConfigurationError(
            f"unknown kernel tier {tier!r}; expected one of "
            f"{', '.join(sorted(_SUITES))} or 'auto'"
        )
    if tier == "numpy" and not HAVE_NUMPY:
        raise ConfigurationError(
            "kernel tier 'numpy' requested but numpy is unavailable "
            "(not installed, or disabled via REPRO_NO_NUMPY=1)"
        )
    return _SUITES[tier]


def batch_probability_of_bdd(
    suite: KernelSuite,
    function,
    probability_maps: Sequence[Mapping[str, float]],
) -> List[float]:
    """Evaluate P(top) of one compiled BDD for a batch of scenarios.

    ``probability_maps`` holds one event-probability mapping per scenario;
    the result is the per-scenario exact top-event probability, bit-identical
    to calling :func:`repro.bdd.probability.probability_of_bdd` in a loop.
    """
    from repro.bdd.probability import flatten_bdd

    flat = flatten_bdd(function)
    rows = flat.probability_rows(probability_maps)
    return suite.eval_bdd_batch(flat, rows)
