"""Filter language: lexing, parsing, precedence, evaluation semantics."""

from __future__ import annotations

import random

import pytest

from sweeprun import filters
from sweeprun.errors import (
    FilterArithmeticError,
    FilterSyntaxError,
    FilterTypeError,
    UnboundVariableError,
)
from sweeprun.filters import (
    Binary,
    NumberLit,
    TextLit,
    Unary,
    Var,
    evaluate,
    free_variables,
    parse,
)


class TestParse:
    def test_simple_comparison(self):
        assert parse("x > y") == Binary("gt", Var("x"), Var("y"))

    def test_full_precedence_tree(self):
        expected = Binary(
            "or",
            Binary(
                "lt",
                Binary("add", Var("x"), NumberLit(1)),
                Binary("mul", NumberLit(2), Var("y")),
            ),
            Unary("not", Binary("eq", Var("z"), NumberLit(3))),
        )
        assert parse("x + 1 < 2 * y or not (z == 3)") == expected

    def test_incomplete_expression_reports_offset(self):
        with pytest.raises(FilterSyntaxError) as exc_info:
            parse("x >")
        assert exc_info.value.offset == 3

    def test_chained_comparison_rejected(self):
        with pytest.raises(FilterSyntaxError, match="chained"):
            parse("a < b < c")

    def test_empty_source_rejected(self):
        with pytest.raises(FilterSyntaxError):
            parse("")
        with pytest.raises(FilterSyntaxError):
            parse("   ")

    @pytest.mark.parametrize(
        "source",
        [
            "x > (", "(x > 1", "x ==", "* 2", "x > 1)", "1 @ 2", "'open", "x AND y", "not",
            "'\ud800' @", "x == \u0663", "x > 1\u0663", "x == \uff12.5",
        ],
    )
    def test_malformed_sources_rejected(self, source):
        with pytest.raises(FilterSyntaxError):
            parse(source)

    def test_whitespace_insensitive(self):
        assert parse("x>y") == parse("  x  >\n\ty ")

    def test_number_literals(self):
        assert parse("2") == NumberLit(2)
        assert parse("2.5") == NumberLit(2.5)
        assert parse(".5") == NumberLit(0.5)
        assert parse("1e3") == NumberLit(1000.0)
        assert isinstance(parse("2").value, int)
        assert isinstance(parse("2.0").value, float)

    def test_text_literal_no_escapes(self):
        assert parse("'hello world'") == TextLit("hello world")

    def test_unary_minus_binds_tighter_than_mul(self):
        assert parse("-x * y") == Binary("mul", Unary("neg", Var("x")), Var("y"))

    def test_not_binds_looser_than_comparison(self):
        assert parse("not x > 1") == Unary("not", Binary("gt", Var("x"), NumberLit(1)))

    def test_parse_is_deterministic(self):
        source = "a*a + b > a and not (b == 2 or a < 0)"
        assert parse(source) == parse(source)

    def test_and_binds_tighter_than_or(self):
        assert parse("a > 0 or b > 0 and c > 0") == Binary(
            "or",
            Binary("gt", Var("a"), NumberLit(0)),
            Binary("and", Binary("gt", Var("b"), NumberLit(0)), Binary("gt", Var("c"), NumberLit(0))),
        )


class TestDepthLimit:
    @pytest.mark.parametrize(
        "source",
        [
            "(" * 130 + "x" + ")" * 130 + " > 1",
            "-" * 2000 + "x > 1",
            "not " * 2000 + "x > 1",
            " + ".join(["x"] * 1000) + " > 1",
        ],
        ids=["parentheses", "minus", "not", "chain"],
    )
    def test_deep_filter_is_a_syntax_error(self, source):
        with pytest.raises(FilterSyntaxError, match="deeper than 64"):
            parse(source)

    def test_filters_at_the_limit_parse_and_evaluate(self):
        nested = "(" * 64 + "x > 1" + ")" * 64
        chain = " + ".join(["x"] * 63) + " > 1"  # 62 additions, a comparison and a leaf
        for source in (nested, chain):
            assert evaluate(parse(source), {"x": 2}) is True

    def test_one_level_past_the_limit_is_rejected(self):
        for source in ("(" * 65 + "x > 1" + ")" * 65, " + ".join(["x"] * 64) + " > 1"):
            with pytest.raises(FilterSyntaxError, match="deeper than 64"):
                parse(source)


class TestNumericLimits:
    def test_overlong_integer_literal_is_a_syntax_error(self):
        with pytest.raises(FilterSyntaxError):
            parse("1" * 5000 + " > 1")

    @pytest.mark.parametrize("source", ["x / 3 > 1", "x + 0.5 > 1"])
    def test_integer_too_large_for_a_real_is_an_arithmetic_error(self, source):
        with pytest.raises(FilterArithmeticError):
            evaluate(parse(source), {"x": 10**400})


class TestFreeVariables:
    def test_two_variables(self):
        assert free_variables(parse("x > y")) == {"x", "y"}

    def test_no_variables(self):
        assert free_variables(parse("1 < 2")) == set()

    def test_duplicates_collapse(self):
        assert free_variables(parse("a*a + b > a")) == {"a", "b"}


class TestEvaluate:
    def test_comparison_true_and_false(self):
        expr = parse("x > y")
        assert evaluate(expr, {"x": 2, "y": 1}) is True
        assert evaluate(expr, {"x": 1, "y": 2}) is False

    def test_division_by_zero(self):
        with pytest.raises(FilterArithmeticError):
            evaluate(parse("x / y > 0"), {"x": 1, "y": 0})

    def test_precedence_values(self):
        assert evaluate(parse("2 + 3 * 4 > 13"), {}) is True
        assert evaluate(parse("(2 + 3) * 4 > 13"), {}) is True
        assert evaluate(parse("2 + 3 * 4 > 14"), {}) is False

    def test_or_short_circuits(self):
        assert evaluate(parse("x == 0 or 1/x > 0"), {"x": 0}) is True

    def test_and_short_circuits(self):
        assert evaluate(parse("x > 0 and 1/x > 0"), {"x": 0}) is False

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse("x > 1"), {"y": 2})

    def test_integer_real_equality_is_numeric(self):
        assert evaluate(parse("x == 2"), {"x": 2.0}) is True
        assert evaluate(parse("x == 2.0"), {"x": 2}) is True

    def test_mixed_arithmetic_promotes(self):
        assert evaluate(parse("x + 1 == 3.5"), {"x": 2.5}) is True

    def test_text_ordering_by_byte_order(self):
        assert evaluate(parse("s < 'b'"), {"s": "a"}) is True
        assert evaluate(parse("s >= 'b'"), {"s": "a"}) is False
        assert evaluate(parse("s == 'fast'"), {"s": "fast"}) is True
        assert evaluate(parse("s != 'fast'"), {"s": "slow"}) is True

    def test_text_number_order_comparison_is_type_error(self):
        with pytest.raises(FilterTypeError):
            evaluate(parse("s < 1"), {"s": "a"})

    def test_text_number_equality_is_type_error(self):
        with pytest.raises(FilterTypeError):
            evaluate(parse("s == 1"), {"s": "a"})

    def test_arithmetic_on_text_is_type_error(self):
        with pytest.raises(FilterTypeError):
            evaluate(parse("s + 1 == 2"), {"s": "a"})

    def test_numeric_root_is_type_error(self):
        with pytest.raises(FilterTypeError):
            evaluate(parse("x + 1"), {"x": 1})

    def test_logical_ops_need_booleans(self):
        with pytest.raises(FilterTypeError):
            evaluate(parse("x and y > 0"), {"x": 1, "y": 1})
        with pytest.raises(FilterTypeError):
            evaluate(parse("not x"), {"x": 1})

    def test_division_is_real(self):
        assert evaluate(parse("3 / 2 == 1.5"), {}) is True

    def test_integer_arithmetic_stays_integer(self):
        # 7 = 1 + 2*3 keeps exact integer identity
        assert evaluate(parse("1 + 2 * 3 == 7"), {}) is True


class TestCompiledFilters:
    def test_a_filter_is_compiled_once(self, monkeypatch):
        expr = parse("x > 1 and not (x == 3)")
        compiled = []
        compile_node = filters._compile

        def counting(node):
            compiled.append(node)
            return compile_node(node)

        monkeypatch.setattr(filters, "_compile", counting)
        results = [evaluate(expr, {"x": x}) for x in range(1000)]
        assert results.count(True) == 997
        assert sum(node is expr for node in compiled) == 1

    def test_at_most_64_filters_stay_compiled(self):
        exprs = [parse(f"x > {i}") for i in range(100)]
        for i, expr in enumerate(exprs):
            assert evaluate(expr, {"x": 50}) is (50 > i)
        assert len(filters._programs) <= filters._COMPILED_FILTERS == 64
        # an evicted filter is compiled again on its next evaluation
        assert evaluate(exprs[0], {"x": 0}) is False


def _random_bool_source(rng: random.Random, names: list[str]) -> str:
    """Random fully parenthesized filter source over numeric parameters.

    Restricted to + - * arithmetic, comparisons, and/or/not, so the same
    source text is also a valid Python expression with identical semantics.
    """

    def arith(depth: int) -> str:
        choice = rng.random()
        if depth <= 0 or choice < 0.35:
            return rng.choice(names)
        if choice < 0.55:
            return str(rng.randint(0, 4))
        if choice < 0.65:
            return repr(round(rng.uniform(-3, 3), 2))
        if choice < 0.75:
            return f"(-{arith(depth - 1)})"
        op = rng.choice(["+", "-", "*"])
        return f"({arith(depth - 1)} {op} {arith(depth - 1)})"

    def boolean(depth: int) -> str:
        choice = rng.random()
        if depth <= 0 or choice < 0.5:
            op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
            return f"({arith(depth)} {op} {arith(depth)})"
        if choice < 0.65:
            return f"(not {boolean(depth - 1)})"
        op = rng.choice(["and", "or"])
        return f"({boolean(depth - 1)} {op} {boolean(depth - 1)})"

    return boolean(3)


def test_evaluate_agrees_with_python_semantics():
    # independent oracle: the restricted grammar is a Python subset, so the
    # host interpreter checks every random filter against every environment
    rng = random.Random(2026)
    names = ["x", "y", "z"]
    checked = 0
    for _ in range(200):
        source = _random_bool_source(rng, names)
        expr = parse(source)
        for _ in range(5):
            env = {n: rng.choice([rng.randint(-3, 3), round(rng.uniform(-3, 3), 3)]) for n in names}
            expected = eval(source, {"__builtins__": {}}, dict(env))
            assert evaluate(expr, env) is expected
            checked += 1
    assert checked == 1000
