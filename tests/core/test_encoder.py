"""Unit tests for the MPMCS -> Weighted Partial MaxSAT encoding (Steps 1-4)."""

import pytest
from hypothesis import given, settings

from repro.api import AnalysisSession
from repro.api.report import AnalysisRequest
from repro.core import encoder as encoder_module
from repro.core.encoder import assemble_structure_cnf, encode_mpmcs
from repro.exceptions import FaultTreeError
from repro.fta.builder import FaultTreeBuilder
from repro.fta.gates import GateType
from repro.fta.tree import FaultTree
from repro.maxsat import BruteForceEngine
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.maxsat.instance import DEFAULT_PRECISION, objective_weight
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus
from repro.workloads.library import NAMED_TREES, fire_protection_system

from tests.conftest import voting_reuse_trees, whole_tree_skeleton


class TestEncoding:
    def test_soft_clause_per_event(self, fps_tree):
        encoding = encode_mpmcs(fps_tree)
        assert encoding.instance.num_soft == 7
        assert set(encoding.event_vars) == {f"x{i}" for i in range(1, 8)}
        labels = {soft.label for soft in encoding.instance.soft}
        assert labels == set(encoding.event_vars)

    def test_soft_clauses_are_negative_unit_clauses(self, fps_tree):
        encoding = encode_mpmcs(fps_tree)
        for soft in encoding.instance.soft:
            assert len(soft.literals) == 1
            assert soft.literals[0] < 0  # (¬x_i)

    def test_weights_match_table_one(self, fps_tree):
        encoding = encode_mpmcs(fps_tree)
        assert encoding.weights["x1"] == pytest.approx(1.60944, abs=5e-6)
        assert encoding.weights["x4"] == pytest.approx(6.21461, abs=5e-6)

    def test_hard_clauses_assert_top_event(self, fps_tree):
        """A model of the hard clauses with no event true must not exist."""
        encoding = encode_mpmcs(fps_tree)
        solver = CDCLSolver()
        for clause in encoding.instance.hard:
            solver.add_clause(list(clause))
        all_events_false = [-var for var in encoding.event_vars.values()]
        assert solver.solve(all_events_false).status is SatStatus.UNSAT
        # ...but setting x3 alone (a single point of failure) must be allowed.
        x3 = encoding.event_vars["x3"]
        others_false = [x3] + [-var for name, var in encoding.event_vars.items() if name != "x3"]
        assert solver.solve(others_false).status is SatStatus.SAT

    def test_cut_set_extraction_from_model(self, fps_tree):
        encoding = encode_mpmcs(fps_tree)
        model = {var: False for var in encoding.event_vars.values()}
        model[encoding.event_vars["x1"]] = True
        model[encoding.event_vars["x2"]] = True
        assert encoding.cut_set_from_model(model) == ("x1", "x2")

    def test_aux_vars_counted(self, fps_tree):
        encoding = encode_mpmcs(fps_tree)
        assert encoding.num_aux_vars > 0
        assert encoding.instance.num_vars >= 7 + encoding.num_aux_vars

    def test_single_event_tree(self):
        tree = FaultTreeBuilder("single").basic_event("only", 0.4).top("only").build()
        encoding = encode_mpmcs(tree)
        result = BruteForceEngine().solve(encoding.instance)
        assert encoding.cut_set_from_model(result.model) == ("only",)

    def test_invalid_tree_rejected(self):
        tree = FaultTreeBuilder("broken").basic_event("a", 0.1).or_gate(
            "top", ["a", "ghost"]
        ).top("top").build(validate=False)
        with pytest.raises(FaultTreeError):
            encode_mpmcs(tree)

    def test_optimum_of_encoding_is_paper_solution(self, fps_tree):
        encoding = encode_mpmcs(fps_tree)
        result = BruteForceEngine().solve(encoding.instance)
        assert encoding.cut_set_from_model(result.model) == ("x1", "x2")
        assert result.float_cost == pytest.approx(3.91202, abs=1e-4)

    def test_soft_weights_use_default_precision(self, fps_tree):
        encoding = encode_mpmcs(fps_tree)
        names = sorted(encoding.weights)
        assert encoding.instance.precision == DEFAULT_PRECISION
        for soft in encoding.instance.soft:
            assert soft.scaled_weight == objective_weight(
                soft.weight, names.index(soft.label), len(names), DEFAULT_PRECISION
            )

    def test_var_events_is_inverse_mapping(self, fps_tree):
        encoding = encode_mpmcs(fps_tree)
        for name, var in encoding.event_vars.items():
            assert encoding.var_events[var] == name


def _or_chain(depth):
    """``g0 = OR(e0, g1)``, …, ``g{depth-1} = OR(e{depth-1}, e{depth})``."""
    builder = FaultTreeBuilder(f"or-chain-{depth}")
    for level in range(depth + 1):
        builder.basic_event(f"e{level}", 0.01)
    for level in range(depth - 1):
        builder.or_gate(f"g{level}", [f"e{level}", f"g{level + 1}"])
    builder.or_gate(f"g{depth - 1}", [f"e{depth - 1}", f"e{depth}"])
    return builder.top("g0").build()


class TestDeepTrees:
    """Encoding never recurses over the tree: depth is bounded by nothing."""

    def test_deep_or_chain_encodes(self):
        tree = _or_chain(1500)
        encoding = encode_mpmcs(tree)
        assert encoding.instance.num_soft == 1501
        # One auxiliary variable per binary OR gate, and the root asserted.
        assert encoding.num_aux_vars == 1500
        assert encoding.instance.num_hard == 3 * 1500 + 1

    def test_deep_or_chain_builds_a_session(self):
        tree = _or_chain(1500)
        session = IncrementalMaxSATSession(whole_tree_skeleton(tree))
        assert len(session.event_vars) == 1501
        assert session.skeleton.cnf.num_aux_vars == 1500


def _rebuilt(tree: FaultTree) -> FaultTree:
    """A tree built node by node from ``tree``'s parts, sharing no compiled state."""
    rebuilt = FaultTree(tree.name, top_event=tree.top_event)
    for event in tree.events.values():
        rebuilt.add_event(event)
    for gate in tree.gates.values():
        rebuilt.add_gate(gate.name, gate.gate_type, gate.children, k=gate.k)
    return rebuilt


def _counted_assemblies(monkeypatch):
    """The structures assembled from now on, in call order."""
    calls = []
    real = encoder_module.assemble_structure_cnf

    def counting(structure):
        calls.append(structure)
        return real(structure)

    monkeypatch.setattr(encoder_module, "assemble_structure_cnf", counting)
    return calls


def _assert_memo_matches_fresh_assembly(tree: FaultTree) -> None:
    memo = tree.compiled().cnf
    fresh = assemble_structure_cnf(_rebuilt(tree).compiled())
    assert memo.clauses == fresh.clauses
    assert (memo.num_vars, memo.event_vars, memo.root, memo.num_aux_vars) == (
        fresh.num_vars,
        fresh.event_vars,
        fresh.root,
        fresh.num_aux_vars,
    )
    assert memo.instance.hard == tuple(memo.clauses)
    assert memo.instance.num_vars == memo.num_vars
    assert memo.instance.num_soft == 0


class TestEncodedOncePerStructure:
    """The hard clauses are encoded once per structure, not cached per tree."""

    def test_one_structure_cnf_across_sessions_copies_and_routes(self, monkeypatch):
        calls = _counted_assemblies(monkeypatch)
        tree = fire_protection_system()
        copy = tree.copy()
        copy.set_probability("x1", 0.5)
        memo = tree.compiled().cnf
        AnalysisSession().analyze(tree, ["mpmcs", "ranking"], backend="maxsat", top_k=3)
        AnalysisSession().analyze(copy, ["mpmcs"], backend="maxsat")
        request = AnalysisRequest.create(["mpmcs"], backend="maxsat")
        warm = list(AnalysisSession().run_batch([tree, copy], request))
        assert [report.profile["warm_solves"] for report in warm] == [1, 1]
        # A session loads its skeleton's clauses, never the whole tree's.
        IncrementalMaxSATSession(copy.compiled().modules[-1])
        assert len(calls) == 1
        assert copy.compiled().cnf is memo
        encoding = encode_mpmcs(copy)
        assert encoding.instance is not memo.instance
        assert encoding.instance.hard == memo.instance.hard

        copy.add_basic_event("y", 0.5)
        copy.add_gate("guard", GateType.AND, [tree.top_event, "y"])
        copy.set_top_event("guard")
        edited = copy.compiled().cnf
        assert len(calls) == 2
        assert edited is not memo
        assert tree.compiled().cnf is memo
        assert edited.instance.num_hard > memo.instance.num_hard

    @pytest.mark.parametrize("name", sorted(set(NAMED_TREES) - {"fps"}))
    def test_memo_equals_a_fresh_assembly_on_library_trees(self, name):
        tree = NAMED_TREES[name]()
        AnalysisSession().analyze(tree, ["mpmcs", "ranking"], backend="maxsat", top_k=3)
        _assert_memo_matches_fresh_assembly(tree)

    @settings(max_examples=30, deadline=None)
    @given(voting_reuse_trees(min_events=3, max_events=8))
    def test_memo_equals_a_fresh_assembly_on_voting_reuse_trees(self, tree):
        AnalysisSession().analyze(tree, ["mpmcs", "ranking"], backend="maxsat", top_k=3)
        _assert_memo_matches_fresh_assembly(tree)
