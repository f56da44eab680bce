"""Unit tests for DIMACS CNF / WCNF parsing and writing."""

import pytest

from repro.exceptions import DimacsError
from repro.logic.cnf import CNF
from repro.logic.dimacs import parse_dimacs, parse_wcnf, write_dimacs, write_wcnf


class TestParseDimacs:
    def test_basic_document(self):
        text = """c a comment
p cnf 3 2
1 -2 0
2 3 0
"""
        cnf = parse_dimacs(text)
        assert cnf.num_vars == 3
        assert cnf.num_clauses == 2
        assert cnf.clauses[0].literals == (1, -2)

    def test_clause_spanning_lines(self):
        text = "p cnf 3 1\n1 2\n3 0\n"
        cnf = parse_dimacs(text)
        assert cnf.clauses[0].literals == (1, 2, 3)

    def test_final_unterminated_clause_tolerated(self):
        cnf = parse_dimacs("p cnf 2 1\n1 2\n")
        assert cnf.num_clauses == 1

    def test_variable_beyond_declared_count_rejected(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 1\n5 0\n")

    def test_malformed_header_rejected(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf x 1\n1 0\n")
        with pytest.raises(DimacsError):
            parse_dimacs("p dnf 1 1\n1 0\n")

    def test_invalid_literal_rejected(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 1 1\none 0\n")


class TestWriteDimacs:
    def test_round_trip(self):
        cnf = CNF([[1, -2], [2, 3]])
        text = write_dimacs(cnf)
        parsed = parse_dimacs(text)
        assert [c.literals for c in parsed] == [c.literals for c in cnf]

    def test_named_variables_recorded_as_comments(self):
        cnf = CNF()
        cnf.var_for("x1")
        cnf.add_clause([1])
        text = write_dimacs(cnf, comments=["generated by tests"])
        assert "c var 1 = x1" in text
        assert "c generated by tests" in text
        assert "p cnf 1 1" in text


class TestWcnf:
    def test_write_and_parse_round_trip(self):
        text = write_wcnf(
            hard=[[1, 2], [-1, 3]],
            soft=[(1.5, [-2]), (0.25, [-3])],
            num_vars=3,
            precision=100,
        )
        doc = parse_wcnf(text)
        assert doc.num_vars == 3
        assert doc.hard == [(1, 2), (-1, 3)]
        assert sorted(w for w, _ in doc.soft) == [25, 150]
        assert doc.top == 25 + 150 + 1

    def test_soft_weight_must_be_positive(self):
        with pytest.raises(DimacsError):
            write_wcnf(hard=[], soft=[(0.0, [1])], num_vars=1)

    def test_invalid_precision_rejected(self):
        with pytest.raises(DimacsError):
            write_wcnf(hard=[], soft=[(1.0, [1])], num_vars=1, precision=0)

    def test_parse_requires_header(self):
        with pytest.raises(DimacsError):
            parse_wcnf("10 1 0\n")

    def test_parse_rejects_unterminated_clause(self):
        with pytest.raises(DimacsError):
            parse_wcnf("p wcnf 1 1 10\n5 1\n")

    def test_parse_rejects_zero_inside_a_clause(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_wcnf("p wcnf 2 1 10\n10 1 0 2 0\n")

    def test_parse_classifies_hard_and_soft(self):
        text = "p wcnf 2 2 100\n100 1 2 0\n7 -1 0\n"
        doc = parse_wcnf(text)
        assert doc.hard == [(1, 2)]
        assert doc.soft == [(7, (-1,))]
