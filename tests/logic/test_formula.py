"""Unit tests for the Boolean formula AST."""

import pytest

from repro.exceptions import FormulaError
from repro.logic.formula import (
    And,
    AtLeast,
    Const,
    FALSE,
    Not,
    Or,
    TRUE,
    Var,
    conjoin,
    disjoin,
    variables_in_order,
)


class TestVar:
    def test_evaluate_true(self):
        assert Var("a").evaluate({"a": True}) is True

    def test_evaluate_false(self):
        assert Var("a").evaluate({"a": False}) is False

    def test_missing_assignment_raises(self):
        with pytest.raises(FormulaError):
            Var("a").evaluate({"b": True})

    def test_empty_name_rejected(self):
        with pytest.raises(FormulaError):
            Var("")

    def test_non_string_name_rejected(self):
        with pytest.raises(FormulaError):
            Var(3)  # type: ignore[arg-type]

    def test_equality_and_hash(self):
        assert Var("a") == Var("a")
        assert Var("a") != Var("b")
        assert hash(Var("a")) == hash(Var("a"))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Var("a").name = "b"  # type: ignore[misc]


class TestConst:
    def test_true_false_evaluate(self):
        assert TRUE.evaluate({}) is True
        assert FALSE.evaluate({}) is False

    def test_substitute_is_identity(self):
        assert TRUE.substitute({"a": FALSE}) is TRUE

    def test_equality(self):
        assert Const(True) == TRUE
        assert Const(False) == FALSE
        assert Const(True) != Const(False)


class TestConnectives:
    def test_and_evaluation(self):
        formula = And((Var("a"), Var("b")))
        assert formula.evaluate({"a": True, "b": True}) is True
        assert formula.evaluate({"a": True, "b": False}) is False

    def test_or_evaluation(self):
        formula = Or((Var("a"), Var("b")))
        assert formula.evaluate({"a": False, "b": False}) is False
        assert formula.evaluate({"a": False, "b": True}) is True

    def test_not_evaluation(self):
        assert Not(Var("a")).evaluate({"a": False}) is True

    def test_operator_sugar_builds_nodes(self):
        a, b = Var("a"), Var("b")
        assert isinstance(a & b, And)
        assert isinstance(a | b, Or)
        assert isinstance(~a, Not)

    def test_empty_and_rejected(self):
        with pytest.raises(FormulaError):
            And(())

    def test_non_formula_operand_rejected(self):
        with pytest.raises(FormulaError):
            And((Var("a"), "b"))  # type: ignore[arg-type]


class TestAtLeast:
    def test_threshold_semantics(self):
        formula = AtLeast(2, (Var("a"), Var("b"), Var("c")))
        assert formula.evaluate({"a": True, "b": True, "c": False}) is True
        assert formula.evaluate({"a": True, "b": False, "c": False}) is False

    def test_k_zero_is_always_true(self):
        assert AtLeast(0, (Var("a"),)).evaluate({"a": False}) is True

    def test_invalid_k_rejected(self):
        with pytest.raises(FormulaError):
            AtLeast(4, (Var("a"), Var("b")))
        with pytest.raises(FormulaError):
            AtLeast(-1, (Var("a"),))

class TestStructure:
    def test_variables_collects_names(self):
        formula = And((Var("a"), Or((Var("b"), Not(Var("c"))))))
        assert formula.variables() == frozenset({"a", "b", "c"})

    def test_variables_in_order_is_first_occurrence(self):
        formula = Or((Var("b"), And((Var("a"), Var("b")))))
        assert variables_in_order(formula) == ("b", "a")

    def test_size_and_depth(self):
        formula = And((Var("a"), Or((Var("b"), Var("c")))))
        assert formula.size() == 5
        assert formula.depth() == 3

    def test_substitute_replaces_variables(self):
        formula = And((Var("a"), Var("b")))
        replaced = formula.substitute({"a": TRUE})
        assert replaced.evaluate({"b": True}) is True
        assert replaced.evaluate({"b": False}) is False

    def test_conjoin_disjoin_trivial_cases(self):
        assert conjoin([]) == TRUE
        assert disjoin([]) == FALSE
        assert conjoin([Var("a")]) == Var("a")
        assert disjoin([Var("a")]) == Var("a")

    def test_to_infix_round_trip_readable(self):
        formula = And((Var("x1"), Or((Var("x2"), Not(Var("x3"))))))
        text = formula.to_infix()
        assert "x1" in text and "x2" in text and "x3" in text
        assert "&" in text and "|" in text
