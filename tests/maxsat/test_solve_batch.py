"""Weight-only re-solves on a warm session and the candidate-pool certificate.

``solve_batch(weights_seq)`` returns exactly what calling ``solve(weights)``
once per scenario would — same events, same scaled cost, same float cost.
Inside ``solve``, a round whose minimum-cost hitting set contains a pooled
cut set is answered without a SAT call (``solve_tree`` also certifies a
hitting set by evaluating its tree); the tests below check that this keeps
SAT work near zero on warm sessions and never changes an answer against a
fresh session or brute force.  ``sat_calls``/``solve_time`` are telemetry and
deliberately excluded from equality.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.analysis.bruteforce import brute_force_minimal_cut_sets
from repro.core.weights import log_weight
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import fire_protection_system

TIERS = kernels.available_tiers()


def _weight_grid(session, seed, count, jumpy=False):
    """Random strictly-positive weight rows over the session's events."""
    rng = random.Random(seed)
    names = sorted(session.event_vars)
    rows = []
    for _ in range(count):
        if jumpy:
            rows.append({name: rng.uniform(0.01, 40.0) for name in names})
        else:
            rows.append({name: rng.uniform(0.5, 9.0) for name in names})
    return rows


def _tree_weights(session, tree):
    """The ``-log`` weights ``solve_tree`` derives from ``tree``."""
    probabilities = tree.probabilities()
    return {name: log_weight(probabilities[name]) for name in session.event_vars}


def _essence(result):
    """The comparable part of a solve result (telemetry stripped)."""
    if result is None:
        return None
    return (
        result.events,
        result.scaled_cost,
        result.cost,
        result.probability_weights,
    )


def _assert_batch_matches_sequential(tree, weights_seq, tier=None):
    # ``tier`` is kept for the parametrised test ids: no solve step reads the
    # kernel tier, so the session no longer takes one.
    batch_session = IncrementalMaxSATSession(tree)
    loop_session = IncrementalMaxSATSession(tree)
    batched = batch_session.solve_batch(weights_seq)
    sequential = [loop_session.solve(weights) for weights in weights_seq]
    assert [_essence(r) for r in batched] == [_essence(r) for r in sequential]
    return batch_session


class TestBatchEqualsSequential:
    @pytest.mark.parametrize("tier", TIERS)
    def test_fps_drift_grid(self, tier):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(tree)
        weights_seq = _weight_grid(session, seed=1, count=12)
        _assert_batch_matches_sequential(tree, weights_seq, tier=tier)

    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_trees_jumpy_grid(self, tier, seed):
        tree = random_fault_tree(num_basic_events=14, seed=seed, voting_ratio=0.2)
        session = IncrementalMaxSATSession(tree)
        weights_seq = _weight_grid(session, seed=seed + 100, count=8, jumpy=True)
        _assert_batch_matches_sequential(tree, weights_seq, tier=tier)

    def test_empty_batch(self):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(tree)
        assert session.solve_batch([]) == []


class TestRerankLadder:
    """The pool certificate inside ``solve``."""

    def test_warm_batch_is_mostly_sat_free(self):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(tree)
        session.solve_tree(tree)  # warm the core collection
        calls_before = session.sat_calls
        weights_seq = _weight_grid(session, seed=7, count=50)
        results = [session.solve(weights) for weights in weights_seq]
        assert all(result is not None for result in results)
        stats = session.rerank_stats
        assert stats["certified"] + stats["fallback"] == 51
        # The certificate must carry the loop: SAT work stays far below one
        # call per scenario.  (The steady-state < 0.1 criterion is asserted
        # on E16's drift-shaped sweep; this grid is fully random, so a few
        # core discoveries are legitimate.)
        assert (session.sat_calls - calls_before) / 50 < 0.25
        assert stats["certified"] > 0

    def test_pool_grows_from_solves(self):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(tree)
        assert session.pool_size == 0
        session.solve_tree(tree)
        assert session.pool_size >= 1

    def test_flips_between_pooled_optima_are_sat_free(self):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(tree)
        first = _weight_grid(session, seed=23, count=1)[0]
        optimum = session.solve(first).events
        # Make the first optimum expensive so the second vector moves it.
        second = {
            name: weight * 10.0 if name in optimum else weight
            for name, weight in first.items()
        }
        assert session.solve(second).events != optimum
        assert session.pool_size == 2

        weights_seq = [first, second] * 5
        calls_before = session.sat_calls
        fallbacks_before = session.rerank_stats["fallback"]
        warm = [session.solve(weights) for weights in weights_seq]
        fresh = [IncrementalMaxSATSession(tree).solve(weights) for weights in weights_seq]
        assert [_essence(r) for r in warm] == [_essence(r) for r in fresh]
        assert session.sat_calls == calls_before
        assert session.rerank_stats["fallback"] == fallbacks_before

    def test_solve_tree_certifies_cut_sets_by_evaluation(self):
        tree = random_fault_tree(num_basic_events=25, seed=7)
        session = IncrementalMaxSATSession(tree)
        result = session.solve_tree(tree)
        # Cold, with an empty pool: every SAT call found a core, and the
        # final hitting set was certified by evaluating the tree.
        assert session.sat_calls == session.num_cores
        assert session.rerank_stats["certified"] == 1
        assert session.rerank_stats["fallback"] == 0
        fresh = IncrementalMaxSATSession(tree).solve(_tree_weights(session, tree))
        assert _essence(result) == _essence(fresh)

    def test_stats_expose_the_ladder(self):
        tree = fire_protection_system()
        session = IncrementalMaxSATSession(tree)
        session.solve_batch(_weight_grid(session, seed=13, count=3))
        stats = session.stats()
        for key in (
            "pool_candidates",
            "rerank_pooled",
            "rerank_certified",
            "rerank_bnb",
            "rerank_fallback",
        ):
            assert key in stats


class TestBatchProperty:
    """S3: randomized equivalence across trees, grids and tiers."""

    @settings(max_examples=30, deadline=None)
    @given(
        tree_seed=st.integers(min_value=0, max_value=25),
        grid_seed=st.integers(min_value=0, max_value=1000),
        scenarios=st.integers(min_value=1, max_value=6),
        tier=st.sampled_from(TIERS),
    )
    def test_solve_batch_equals_solve_loop(self, tree_seed, grid_seed, scenarios, tier):
        tree = random_fault_tree(
            num_basic_events=10, seed=tree_seed, voting_ratio=0.15
        )
        probe = IncrementalMaxSATSession(tree)
        weights_seq = _weight_grid(
            probe, seed=grid_seed, count=scenarios, jumpy=grid_seed % 2 == 0
        )
        _assert_batch_matches_sequential(tree, weights_seq, tier=tier)


def _probability_walk(names, rng, steps):
    """A random walk of event probabilities over ``names``."""
    current = {name: rng.uniform(0.01, 0.6) for name in names}
    walk = []
    for _ in range(steps):
        for name in rng.sample(names, rng.randint(1, len(names))):
            current[name] = min(0.95, max(1e-4, current[name] * rng.uniform(0.1, 5.0)))
        walk.append(dict(current))
    return walk


def _brute_force_optimum(session, minimal_cut_sets, weights):
    """Least scaled cost over the minimal cut sets."""
    return min(session.scaled_cost_of(cut_set, weights) for cut_set in minimal_cut_sets)


class TestCertificateProperty:
    """Warm (certificate firing), fresh and brute-force optima agree."""

    @settings(max_examples=40, deadline=None)
    @given(
        tree_seed=st.integers(min_value=0, max_value=40),
        walk_seed=st.integers(min_value=0, max_value=10_000),
        steps=st.integers(min_value=1, max_value=8),
    )
    def test_warm_fresh_and_brute_force_agree(self, tree_seed, walk_seed, steps):
        tree = random_fault_tree(num_basic_events=9, seed=tree_seed, voting_ratio=0.2)
        # One warm session certifies from its pool only (``solve``), the
        # other also by evaluating the scenario tree (``solve_tree``).
        warm = IncrementalMaxSATSession(tree)
        warm_tree = IncrementalMaxSATSession(tree)
        names = sorted(warm.event_vars)
        minimal_cut_sets = [frozenset(cut_set) for cut_set in brute_force_minimal_cut_sets(tree)]
        rng = random.Random(walk_seed)
        for probabilities in _probability_walk(names, rng, steps):
            scenario = tree.copy()
            for name, probability in probabilities.items():
                scenario.set_probability(name, probability)
            weights = {name: log_weight(probability) for name, probability in probabilities.items()}
            results = [
                warm.solve(weights),
                warm_tree.solve_tree(scenario),
                IncrementalMaxSATSession(tree).solve(weights),
            ]
            expected = _brute_force_optimum(warm, minimal_cut_sets, weights)
            assert [result.scaled_cost for result in results] == [expected] * 3
            for result in results[:2]:
                assert tree.is_minimal_cut_set(result.events)
