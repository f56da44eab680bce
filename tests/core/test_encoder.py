"""Unit tests for the MPMCS -> Weighted Partial MaxSAT encoding (Steps 1-4)."""

import pytest

from repro.core.encoder import encode_mpmcs
from repro.exceptions import FaultTreeError
from repro.fta.builder import FaultTreeBuilder
from repro.maxsat import BruteForceEngine
from repro.maxsat.incremental import IncrementalMaxSATSession
from repro.sat.cdcl import CDCLSolver
from repro.sat.types import SatStatus


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

    def test_precision_controls_scaling(self, fps_tree):
        coarse = encode_mpmcs(fps_tree, precision=100)
        fine = encode_mpmcs(fps_tree, precision=10**9)
        coarse_w = [s.scaled_weight for s in coarse.instance.soft]
        fine_w = [s.scaled_weight for s in fine.instance.soft]
        assert max(coarse_w) < max(fine_w)

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
        session = IncrementalMaxSATSession(tree)
        assert len(session.event_vars) == 1501
        assert session.num_aux_vars == 1500
