"""Differential ranking: the ``maxsat`` top-k ranking equals the ``bdd`` one.

Probabilities come from a three-value palette, so optima tie often — at the
head of the ranking and at its ``top_k`` boundary.  Every ``maxsat`` entry
point is checked: the cold ``run``, the warm ``run_batch`` a sweep's batch
uses, and :func:`enumerate_mpmcs`.  Trees whose modules all solve by rule
are ranked module by module; they are checked against MOCUS on random
trees without shared nodes, and the voting ladders against a brute force.
Trees with shared subtrees, whose searched skeletons rank by blocked
skeleton solves, are checked against the whole-tree RC2 oracle, MOCUS and a
brute force.  Two library trees with near-tied cut sets check every cut-set
backend against ``maxsat``.
"""

import hashlib
import heapq
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.mocus import mocus_minimal_cut_sets
from repro.api import AnalysisRequest, AnalysisSession
from repro.core.pipeline import MPMCSSolver
from repro.core.topk import enumerate_mpmcs
from repro.core.weights import log_weight, probability_of_cut_set
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree
from repro.maxsat import RC2Engine
from repro.maxsat.instance import DEFAULT_PRECISION, scale_weight
from repro.sat.cdcl import CDCLSolver
from repro.scenarios.sweep import SweepExecutor
from repro.workloads.generator import random_fault_tree
from repro.workloads.library import NAMED_TREES
from tests.conftest import flat_vote, k_of_n_ladder, voting_reuse_tree, voting_reuse_trees

TOP_KS = (1, 2, 3, 5)
PALETTE = (0.05, 0.1, 0.2)


def _tied_tree(seed):
    tree = random_fault_tree(num_basic_events=8 + seed % 10, seed=seed, voting_ratio=0.2)
    rng = random.Random(seed)
    for name in sorted(tree.events):
        tree.set_probability(name, rng.choice(PALETTE))
    return tree


def _events(report):
    return [entry.events for entry in report.ranking]


@pytest.mark.parametrize("seed", range(60))
def test_maxsat_ranking_matches_bdd(seed):
    tree = _tied_tree(seed)
    session = AnalysisSession()
    warm = SweepExecutor(AnalysisSession(), backend="maxsat")
    analyses = warm.prepare_analyses(("ranking",))
    for top_k in TOP_KS:
        expected = _events(session.analyze(tree, ["ranking"], backend="bdd", top_k=top_k))
        cold = session.analyze(tree, ["ranking"], backend="maxsat", top_k=top_k)
        assert _events(cold) == expected, ("cold", top_k)
        (report,) = warm.analyze_batch([tree], analyses, top_k=top_k)
        assert _events(report) == expected, ("warm", top_k)


@pytest.mark.parametrize("name", ["chemical-reactor", "emergency-shutdown"])
@pytest.mark.parametrize("backend", ["mocus", "bdd", "brute-force"])
def test_cut_set_backends_rank_in_the_objective_order(name, backend):
    """Near-tied cut sets, whose float products differ in the last place or
    not at all, rank as the MaxSAT objective orders them: by scaled ``-log``
    cost, then size, then names."""
    tree = NAMED_TREES[name]()
    session = AnalysisSession()
    for top_k in (1, 3, 5):
        expected = _events(session.analyze(tree, ["ranking"], backend="maxsat", top_k=top_k))
        report = session.analyze(tree, ["ranking"], backend=backend, top_k=top_k)
        assert _events(report) == expected, top_k


@pytest.mark.parametrize(
    "tree",
    [voting_reuse_tree(6, 3528), NAMED_TREES["chemical-reactor"](), NAMED_TREES["emergency-shutdown"]()],
    ids=["voting-reuse-6-3528", "chemical-reactor", "emergency-shutdown"],
)
@pytest.mark.parametrize("backend", ["mocus", "bdd", "brute-force"])
def test_near_tie_mpmcs_matches_across_backends(tree, backend):
    """Every backend's MPMCS is the MaxSAT objective's optimum.  On the
    voting/reuse tree, {e0, e1, e4} and {e0, e2, e4} have equal float
    products and the objective prefers the first; the ``bdd`` backend's
    dynamic programme once returned the second, and later reported the
    product in diagram order, one ulp off the sorted-name product."""
    expected = AnalysisSession().analyze(tree, ["mpmcs"], backend="maxsat").mpmcs
    report = AnalysisSession().analyze(tree, ["mpmcs"], backend=backend).mpmcs
    assert report.events == expected.events
    assert report.cost == expected.cost
    assert report.probability == expected.probability


@pytest.mark.parametrize(
    "tree",
    [factory() for _, factory in sorted(NAMED_TREES.items())]
    + [voting_reuse_tree(3 + seed % 6, seed) for seed in range(40)],
    ids=lambda tree: tree.name,
)
def test_bdd_mpmcs_is_bit_equal_to_maxsat(tree):
    expected = AnalysisSession().analyze(tree, ["mpmcs"], backend="maxsat").mpmcs
    report = AnalysisSession().analyze(tree, ["mpmcs"], backend="bdd").mpmcs
    assert (report.events, report.cost, report.probability) == (
        expected.events,
        expected.cost,
        expected.probability,
    )


LIBRARY_AND_VOTING_TREES = [factory() for _, factory in sorted(NAMED_TREES.items())] + [
    voting_reuse_tree(3 + seed % 6, seed) for seed in range(40)
]


def _entries(ranking):
    return [(entry.events, entry.probability, entry.cost) for entry in ranking]


@pytest.mark.parametrize("tree", LIBRARY_AND_VOTING_TREES, ids=lambda tree: tree.name)
def test_every_maxsat_entry_point_ranks_like_bdd_and_mocus(tree):
    for top_k in (1, 3, 10):

        def ranking(backend):
            request = AnalysisRequest.create(("ranking",), backend=backend, top_k=top_k)
            return AnalysisSession().run(tree, request).ranking

        expected = _entries(ranking("bdd"))
        assert _entries(ranking("mocus")) == expected, ("mocus", top_k)
        assert _entries(ranking("maxsat")) == expected, ("run", top_k)
        request = AnalysisRequest.create(("ranking",), backend="maxsat", top_k=top_k)
        (warm,) = AnalysisSession().run_batch([tree], request)
        assert _entries(warm.ranking) == expected, ("run_batch", top_k)
        assert _entries(enumerate_mpmcs(tree, top_k)) == expected, ("enumerate_mpmcs", top_k)


@st.composite
def independent_trees(draw, depth=3):
    """A random tree of AND, OR and k-of-n gates in which no node is shared,
    its probabilities from :data:`PALETTE` (so cut sets tie often)."""
    tree = FaultTree("independent")
    names = itertools.count()

    def node(level):
        if level < depth and (level == 0 or draw(st.booleans())):
            children = [node(level + 1) for _ in range(draw(st.integers(1, 3)))]
            kind = draw(st.sampled_from([GateType.AND, GateType.OR, GateType.VOTING]))
            k = draw(st.integers(1, len(children))) if kind is GateType.VOTING else None
            name = f"g{next(names)}"
            tree.add_gate(name, kind, children, k=k)
        else:
            name = f"e{next(names)}"
            tree.add_basic_event(name, draw(st.sampled_from(PALETTE)))
        return name

    tree.set_top_event(node(0))
    tree.validate()
    return tree


@settings(max_examples=80, deadline=None)
@given(tree=independent_trees(), top_k=st.integers(1, 12))
def test_merged_ranking_equals_mocus_on_trees_without_shared_nodes(tree, top_k):
    assert all(skeleton.by_rule for skeleton in tree.compiled().modules)
    expected = [
        (tuple(sorted(cut_set)), probability)
        for cut_set, probability in mocus_minimal_cut_sets(tree).ranked(top_k)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CDCLSolver, "solve", _no_sat_call)
        ranked = MPMCSSolver().rank(tree, top_k)
    assert [(result.events, result.probability) for result in ranked] == expected


def _ranking_bytes(report):
    return json.dumps(report.to_canonical_dict()["ranking"], sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(tree=voting_reuse_trees(min_events=3, max_events=8))
def test_skeleton_ranking_equals_the_whole_tree_oracle(tree):
    """The default solver's top-k, on ``run`` and ``run_batch``, is byte for
    byte the ranking of RC2 alone on blocked whole-tree solves, of MOCUS and
    of a brute force."""
    oracle = AnalysisSession(solver=MPMCSSolver(single_engine=RC2Engine()))
    for top_k in (2, 3, 10):
        request = AnalysisRequest.create(("ranking",), backend="maxsat", top_k=top_k)
        expected = _ranking_bytes(oracle.run(tree, request))
        assert _ranking_bytes(AnalysisSession().run(tree, request)) == expected, ("run", top_k)
        (warm,) = AnalysisSession().run_batch([tree], request)
        assert _ranking_bytes(warm) == expected, ("run_batch", top_k)
        for backend in ("mocus", "brute-force"):
            other = AnalysisRequest.create(("ranking",), backend=backend, top_k=top_k)
            report = AnalysisSession().run(tree, other)
            assert _ranking_bytes(report) == expected, (backend, top_k)


def _no_sat_call(self, *args, **kwargs):
    raise AssertionError("a ranking by rule makes no SAT call")


def _brute_force_vote(tree, count):
    """The ``count`` first cut sets of a k-of-n vote over independent
    channels: choices of k channels and of one event per channel, ordered by
    (scaled cost, size, sorted names).  Only channel choices whose cheapest
    events cost at most the ``count``-th cheapest such choice are expanded:
    no other can hold a cut set of the first ``count``."""
    top = tree.gates[tree.top_event]
    channels = [
        tree.gates[child].children if child in tree.gates else (child,) for child in top.children
    ]
    probabilities = tree.probabilities()
    scaled = {
        name: scale_weight(log_weight(probability), DEFAULT_PRECISION)
        for name, probability in probabilities.items()
    }

    def cost(events):
        return sum(scaled[name] for name in events)

    choices = [
        (cost(min(channel, key=scaled.get) for channel in chosen), chosen)
        for chosen in itertools.combinations(channels, top.k)
    ]
    bound = sorted(head for head, _ in choices)[count - 1]
    cut_sets = (
        tuple(sorted(events))
        for head, chosen in choices
        if head <= bound
        for events in itertools.product(*chosen)
    )
    best = heapq.nsmallest(count, cut_sets, key=lambda events: (cost(events), events))
    return [(events, probability_of_cut_set(events, probabilities)) for events in best]


@pytest.mark.parametrize(
    "tree",
    [k_of_n_ladder(9, 5), k_of_n_ladder(11, 6), k_of_n_ladder(15, 8), flat_vote(15, 8)],
    ids=lambda tree: tree.name,
)
def test_votes_rank_like_a_brute_force(tree):
    expected = _brute_force_vote(tree, 10)
    report = AnalysisSession().analyze(tree, ["ranking"], backend="maxsat", top_k=10)
    assert [(entry.events, entry.probability) for entry in report.ranking] == expected


@pytest.mark.parametrize(
    "tree",
    [k_of_n_ladder(11, 6), k_of_n_ladder(15, 8), k_of_n_ladder(31, 16), flat_vote(15, 8)],
    ids=lambda tree: tree.name,
)
def test_vote_top_10_through_the_facade_takes_under_50_ms(tree):
    """Blocked solves gave no top-3 in 60 s on the 8-of-15 ladder and vote."""
    session = AnalysisSession()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        session.analyze(tree, ["ranking"], backend="maxsat", top_k=10)
        best = min(best, time.perf_counter() - start)
    assert best <= 0.050, f"{best * 1e3:.1f} ms"


#: sha256 of the canonical report of a top 10 of the 500-of-1000 ladder, as
#: ranked before successors dearer than ``count`` pushed states were cut.
WIDE_LADDER_TOP_10 = "1c098cdb72e43ece2edc24561f20f56edd5587bc19de8de7f2094b0c4efbaffb"


def test_wide_vote_top_10_takes_under_50_ms():
    """Pushing every successor took 0.2-0.4 s: each pop built up to 2k states of k pairs."""
    tree = k_of_n_ladder(1000, 500)
    session = AnalysisSession()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        report = session.analyze(tree, ["ranking"], backend="maxsat", top_k=10)
        best = min(best, time.perf_counter() - start)
    canonical = json.dumps(report.to_canonical_dict(), sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == WIDE_LADDER_TOP_10
    assert best <= 0.050, f"{best * 1e3:.1f} ms"
