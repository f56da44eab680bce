"""Monte Carlo estimation of the top-event probability.

Exact quantitative FTA (inclusion–exclusion or BDD) becomes infeasible on very
large models; standard practice is then to estimate ``P(top)`` by sampling
basic-event states.  The estimator here is the plain (crude) Monte Carlo
estimator with a normal-approximation confidence interval, plus an optional
importance-sampling mode for rare top events in which every event probability
is inflated by a caller-supplied factor and the estimate is corrected with the
likelihood ratio.

Besides being useful on its own, the estimator acts as an independent
validation substrate: the test suite checks it against the exact BDD
probability on mid-sized trees.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from repro.exceptions import AnalysisError
from repro.fta.tree import FaultTree

__all__ = ["MonteCarloEstimate", "estimate_top_event_probability"]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Result of a Monte Carlo top-event estimation."""

    probability: float
    standard_error: float
    confidence_low: float
    confidence_high: float
    samples: int
    hits: float
    seed: int

    def within(self, reference: float, *, sigmas: float = 4.0) -> bool:
        """True when ``reference`` lies within ``sigmas`` standard errors."""
        margin = sigmas * self.standard_error
        return self.probability - margin <= reference <= self.probability + margin


def estimate_top_event_probability(
    tree: FaultTree,
    *,
    samples: int = 10_000,
    seed: int = 0,
    importance_factor: float = 1.0,
    confidence: float = 0.95,
) -> MonteCarloEstimate:
    """Estimate ``P(top event)`` by Monte Carlo sampling.

    Parameters
    ----------
    tree:
        The fault tree (validated first).
    samples:
        Number of independent samples to draw.
    seed:
        PRNG seed; results are reproducible for a fixed seed.
    importance_factor:
        When greater than 1, each event probability is inflated by this factor
        (capped at 0.5) for sampling and the estimate is corrected with the
        likelihood ratio — a simple importance-sampling scheme that reduces the
        variance for rare top events.
    confidence:
        Two-sided confidence level for the reported interval (normal
        approximation).
    """
    tree.validate()
    if samples <= 0:
        raise AnalysisError("samples must be a positive integer")
    if importance_factor < 1.0:
        raise AnalysisError("importance_factor must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError("confidence must lie in (0, 1)")

    probabilities = tree.probabilities()
    events = sorted(tree.events_reachable_from_top())
    sampling_probabilities = {
        name: min(0.5, probabilities[name] * importance_factor)
        if probabilities[name] < 0.5
        else probabilities[name]
        for name in events
    }

    rng = random.Random(seed)

    total_weight = 0.0
    total_weight_squared = 0.0

    for _ in range(samples):
        happened: List[str] = []
        likelihood_ratio = 1.0
        for name in events:
            q = sampling_probabilities[name]
            p = probabilities[name]
            occurred = rng.random() < q
            if occurred:
                happened.append(name)
            if importance_factor != 1.0:
                likelihood_ratio *= (p / q) if occurred else ((1.0 - p) / (1.0 - q))
        weight = likelihood_ratio if tree.is_cut_set(happened) else 0.0
        total_weight += weight
        total_weight_squared += weight * weight

    mean = total_weight / samples
    variance = max(total_weight_squared / samples - mean * mean, 0.0)
    standard_error = math.sqrt(variance / samples)
    z = _z_score(confidence)
    return MonteCarloEstimate(
        probability=mean,
        standard_error=standard_error,
        confidence_low=max(0.0, mean - z * standard_error),
        confidence_high=min(1.0, mean + z * standard_error),
        samples=samples,
        hits=total_weight,
        seed=seed,
    )


def _z_score(confidence: float) -> float:
    """Two-sided z-score for a given confidence level (small lookup + fallback)."""
    table = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758, 0.999: 3.2905}
    if confidence in table:
        return table[confidence]
    # Rational approximation (Beasley-Springer/Moro) for other levels.
    p = 1.0 - (1.0 - confidence) / 2.0
    # Acklam's approximation of the inverse normal CDF.
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p <= 1 - p_low:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
    )
