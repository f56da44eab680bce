"""End-to-end integration tests across subsystems.

These tests exercise complete user workflows: file in -> analysis -> report
out, agreement between the MaxSAT pipeline and every classical baseline on
non-trivial trees, and failure-injection scenarios (malformed models,
impossible top events, adversarial inputs).
"""

import json

import pytest

from repro import (
    FaultTreeBuilder,
    MPMCSSolver,
    enumerate_mpmcs,
    find_mpmcs,
    random_fault_tree,
)
from repro.analysis.bruteforce import brute_force_mpmcs
from repro.analysis.mocus import mocus_mpmcs
from repro.bdd.probability import bdd_mpmcs
from repro.core.weights import probability_from_cost
from repro.exceptions import ParseError
from repro.fta.parsers.galileo import parse_galileo
from repro.fta.parsers.json_format import parse_json
from repro.fta.serializers import to_galileo, to_json
from repro.maxsat import HittingSetEngine, RC2Engine
from repro.reporting.json_report import analysis_report
from repro.workloads.library import NAMED_TREES, get_tree


class TestFileToReportWorkflow:
    def test_galileo_to_json_report(self, tmp_path, fps_tree):
        """Full tool workflow: Galileo file -> parse -> solve -> JSON report."""
        model_path = tmp_path / "model.dft"
        model_path.write_text(to_galileo(fps_tree), encoding="utf-8")

        parsed = parse_galileo(model_path.read_text(encoding="utf-8"))
        result = MPMCSSolver().solve(parsed)
        report = analysis_report(parsed, result)

        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        reloaded = json.loads(report_path.read_text(encoding="utf-8"))
        assert reloaded["solution"]["mpmcs"] == ["x1", "x2"]
        assert reloaded["solution"]["probability"] == pytest.approx(0.02)

    def test_json_round_trip_preserves_analysis_result(self, any_library_tree):
        original_result = find_mpmcs(any_library_tree, single_engine=RC2Engine())
        round_tripped = parse_json(to_json(any_library_tree))
        new_result = find_mpmcs(round_tripped, single_engine=RC2Engine())
        assert new_result.probability == pytest.approx(original_result.probability)


class TestAllMethodsAgree:
    """The MaxSAT pipeline, MOCUS, BDD and brute force must agree everywhere."""

    @pytest.mark.parametrize("name", sorted(set(NAMED_TREES)))
    def test_library_trees(self, name):
        tree = get_tree(name)
        maxsat = MPMCSSolver().solve(tree)
        assert mocus_mpmcs(tree)[1] == pytest.approx(maxsat.probability)
        assert bdd_mpmcs(tree)[1] == pytest.approx(maxsat.probability)
        assert brute_force_mpmcs(tree)[1] == pytest.approx(maxsat.probability)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_medium_random_trees(self, seed):
        tree = random_fault_tree(num_basic_events=40, seed=seed, voting_ratio=0.1)
        maxsat = MPMCSSolver(single_engine=RC2Engine()).solve(tree)
        bdd_events, bdd_probability = bdd_mpmcs(tree)
        assert maxsat.probability == pytest.approx(bdd_probability, rel=1e-9)
        assert tree.is_minimal_cut_set(maxsat.events)

    def test_engines_agree_on_medium_tree(self):
        tree = random_fault_tree(num_basic_events=60, seed=11, voting_ratio=0.15)
        costs = set()
        for engine in (RC2Engine(), HittingSetEngine()):
            result = MPMCSSolver(single_engine=engine).solve(tree)
            costs.add(round(result.cost, 6))
        assert len(costs) == 1


class TestTopKConsistency:
    def test_topk_first_entry_equals_single_solve(self, fps_tree):
        single = MPMCSSolver().solve(fps_tree)
        ranked = enumerate_mpmcs(fps_tree, 1)
        assert ranked[0].events == single.events
        assert ranked[0].probability == pytest.approx(single.probability)

    def test_topk_probabilities_consistent_with_costs(self, voting_tree):
        for entry in enumerate_mpmcs(voting_tree, 4):
            assert probability_from_cost(entry.cost) == pytest.approx(
                entry.probability, rel=1e-6
            )


class TestFailureInjection:
    def test_impossible_top_event_is_reported(self):
        # A 3-of-3 voting gate whose children can never all be distinct events
        # is still satisfiable; instead build an unsatisfiable model by nesting
        # a tree whose only gate has an unreachable threshold: not possible in
        # a coherent tree, so check the UNSAT path through the raw instance.
        from repro.core.encoder import encode_mpmcs
        from repro.maxsat import MaxSATStatus

        tree = (
            FaultTreeBuilder("blocked")
            .basic_event("a", 0.5)
            .basic_event("b", 0.5)
            .and_gate("top", ["a", "b"])
            .top("top")
            .build()
        )
        encoding = encode_mpmcs(tree)
        # Make the instance artificially unsatisfiable by forbidding both events.
        encoding.instance.add_hard([-encoding.event_vars["a"]])
        encoding.instance.add_hard([-encoding.event_vars["b"]])
        result = RC2Engine().solve(encoding.instance)
        assert result.status is MaxSATStatus.UNSATISFIABLE

    def test_malformed_galileo_reports_line_numbers(self):
        bad = 'toplevel "t";\n"t" or "a";\n"a" probability=0.5;'
        with pytest.raises(ParseError, match="line 3"):
            parse_galileo(bad)

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError):
            parse_json('{"events": [], "gates": []}')

    def test_adversarial_names_survive_round_trips(self):
        tree = (
            FaultTreeBuilder("weird names")
            .basic_event("event with spaces", 0.1)
            .basic_event("unicode-événement", 0.2)
            .or_gate("top gate", ["event with spaces", "unicode-événement"])
            .top("top gate")
            .build()
        )
        result = find_mpmcs(tree, single_engine=RC2Engine())
        assert result.events == ("unicode-événement",)
        parsed = parse_json(to_json(tree))
        assert parsed.probability("event with spaces") == 0.1

    def test_deep_chain_tree(self):
        """A pathological 60-level deep chain still analyses correctly."""
        builder = FaultTreeBuilder("chain")
        builder.basic_event("leaf0", 0.5)
        previous = "leaf0"
        for level in range(1, 60):
            leaf = f"leaf{level}"
            builder.basic_event(leaf, 0.5)
            gate = f"g{level}"
            if level % 2 == 0:
                builder.and_gate(gate, [previous, leaf])
            else:
                builder.or_gate(gate, [previous, leaf])
            previous = gate
        tree = builder.top(previous).build()
        result = find_mpmcs(tree, single_engine=RC2Engine())
        assert tree.is_minimal_cut_set(result.events)

    def test_wide_or_tree(self):
        """A 500-child OR gate: the MPMCS is the single most likely event."""
        builder = FaultTreeBuilder("wide")
        names = []
        for index in range(500):
            name = f"e{index}"
            builder.basic_event(name, 0.001 + (index % 97) * 1e-5)
            names.append(name)
        tree = builder.or_gate("top", names).top("top").build()
        result = find_mpmcs(tree, single_engine=RC2Engine())
        assert len(result.events) == 1
        expected_best = max(names, key=lambda n: tree.probability(n))
        assert result.probability == pytest.approx(tree.probability(expected_best))
