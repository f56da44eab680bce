"""Sensitivity and uncertainty analysis of the MPMCS.

The MPMCS depends on point estimates of the basic-event probabilities, which
in practice carry substantial uncertainty.  Two complementary analyses are
provided:

* :func:`mpmcs_stability` — epistemic-uncertainty propagation: event
  probabilities are perturbed (log-uniformly within a multiplicative error
  factor), the MPMCS is recomputed for every perturbed model, and the result
  reports how often each cut set comes out on top.  A dominant cut set that
  wins in (say) 95% of the samples is a robust conclusion; a 55/45 split warns
  the analyst that the ranking is not trustworthy at the current data quality.
* :func:`tornado_analysis` — one-at-a-time sensitivity of the top-event
  probability: each event's probability is scaled down/up by a factor and the
  resulting swing of ``P(top)`` (computed exactly with the BDD engine) is
  reported, sorted by impact — the classical "tornado diagram" data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bdd.probability import top_event_probability
from repro.core.pipeline import MPMCSSolver
from repro.exceptions import AnalysisError
from repro.fta.tree import FaultTree

__all__ = ["MPMCSStabilityReport", "TornadoEntry", "mpmcs_stability", "tornado_analysis"]


@dataclass
class MPMCSStabilityReport:
    """Outcome of the MPMCS stability analysis under probability uncertainty."""

    baseline: Tuple[str, ...]
    samples: int
    error_factor: float
    win_counts: Dict[Tuple[str, ...], int] = field(default_factory=dict)
    probability_range: Tuple[float, float] = (0.0, 0.0)

    @property
    def baseline_win_rate(self) -> float:
        """Fraction of perturbed models whose MPMCS equals the baseline MPMCS."""
        if self.samples == 0:
            return 0.0
        return self.win_counts.get(self.baseline, 0) / self.samples

    def ranked(self) -> List[Tuple[Tuple[str, ...], float]]:
        """Cut sets sorted by how often they were the MPMCS (win rate)."""
        return sorted(
            ((events, count / self.samples) for events, count in self.win_counts.items()),
            key=lambda item: -item[1],
        )


def mpmcs_stability(
    tree: FaultTree,
    *,
    samples: int = 50,
    error_factor: float = 3.0,
    seed: int = 0,
    solver: Optional[MPMCSSolver] = None,
) -> MPMCSStabilityReport:
    """Quantify how robust the MPMCS is to basic-event probability uncertainty.

    Every sample multiplies each event probability by a factor drawn
    log-uniformly from ``[1/error_factor, error_factor]`` (clamped to 1.0) and
    recomputes the MPMCS.
    """
    tree.validate()
    if samples <= 0:
        raise AnalysisError("samples must be a positive integer")
    if error_factor <= 1.0:
        raise AnalysisError("error_factor must be greater than 1")

    pipeline = solver if solver is not None else MPMCSSolver()
    baseline = pipeline.solve(tree)

    rng = random.Random(seed)
    import math

    log_range = math.log(error_factor)
    win_counts: Dict[Tuple[str, ...], int] = {}
    lowest, highest = float("inf"), 0.0

    for _ in range(samples):
        perturbed = tree.copy(name=f"{tree.name}-perturbed")
        for name, probability in tree.probabilities().items():
            factor = math.exp(rng.uniform(-log_range, log_range))
            perturbed.set_probability(name, min(1.0, probability * factor))
        result = pipeline.solve(perturbed)
        win_counts[result.events] = win_counts.get(result.events, 0) + 1
        lowest = min(lowest, result.probability)
        highest = max(highest, result.probability)

    return MPMCSStabilityReport(
        baseline=baseline.events,
        samples=samples,
        error_factor=error_factor,
        win_counts=win_counts,
        probability_range=(lowest, highest),
    )


@dataclass(frozen=True)
class TornadoEntry:
    """One bar of the tornado diagram: the P(top) swing caused by one event."""

    event: str
    baseline_probability: float
    low_top_probability: float
    high_top_probability: float

    @property
    def swing(self) -> float:
        """Width of the P(top) interval induced by the event's uncertainty."""
        return self.high_top_probability - self.low_top_probability


def tornado_analysis(
    tree: FaultTree,
    *,
    factor: float = 10.0,
    events: Optional[List[str]] = None,
) -> List[TornadoEntry]:
    """One-at-a-time sensitivity of the exact top-event probability.

    Each selected event's probability is divided and multiplied by ``factor``
    (clamped to (0, 1]) while all others stay at their point estimates; the
    exact top-event probability is recomputed with the BDD engine for both
    variants.  Entries are returned sorted by decreasing swing.
    """
    tree.validate()
    if factor <= 1.0:
        raise AnalysisError("factor must be greater than 1")
    selected = events if events is not None else sorted(tree.events_reachable_from_top())
    for name in selected:
        if not tree.is_event(name):
            raise AnalysisError(f"unknown basic event {name!r}")

    entries: List[TornadoEntry] = []
    for name in selected:
        baseline_probability = tree.probability(name)
        low_tree = tree.copy(name=f"{tree.name}-low")
        low_tree.set_probability(name, max(baseline_probability / factor, 1e-300))
        high_tree = tree.copy(name=f"{tree.name}-high")
        high_tree.set_probability(name, min(baseline_probability * factor, 1.0))
        entries.append(
            TornadoEntry(
                event=name,
                baseline_probability=baseline_probability,
                low_top_probability=top_event_probability(low_tree),
                high_top_probability=top_event_probability(high_tree),
            )
        )
    return sorted(entries, key=lambda entry: -entry.swing)
