"""Fuzzing: the filter language and the template scanner reject any input
with sweeprun's own errors, never with a Python exception; the compiled
template renderer agrees with a character-by-character reference, the
compiled filter evaluator agrees with a tree-walking reference, and the
filter lexer and parser agree with a character loop and a recursive-descent
parser with one method per precedence level."""

from __future__ import annotations

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sweeprun import filters
from sweeprun.errors import (
    EmptySweepError,
    FilterArithmeticError,
    FilterSyntaxError,
    FilterTypeError,
    SweepRunError,
    TemplateSyntaxError,
    UnboundVariableError,
    UnfilledPlaceholderError,
)
from sweeprun.filters import MAX_DEPTH, Binary, NumberLit, TextLit, Unary, Var, evaluate, free_variables, parse
from sweeprun.filters import _KEYWORDS, _height, _split, _syntax_error, _Token, _tokenize
from sweeprun.mapping import AssociationMapping, build_mapping, cells
from sweeprun.sweeps import CartesianSweep, FilteredCartesianSweep
from sweeprun.templates import extract_placeholders, format_grid, format_value, render

BIG = "1" + "0" * 400  # an integer literal too large for a 64-bit real
FILTER_TOKENS = [
    "x", "y", "s", "z", "0", "2", "1.5", "1e999", BIG, "'a'",
    "(", ")", "-", "+", "*", "/", "<", "<=", ">", ">=", "==", "!=", "and", "or", "not",
]
ENV = {"x": 2, "y": 0.5, "s": "text"}

fuzz = settings(deadline=None, max_examples=150)


@fuzz
@given(st.text(max_size=40))
def test_parse_any_text(source):
    try:
        parse(source)
    except SweepRunError:
        pass


@fuzz
@given(st.lists(st.sampled_from(FILTER_TOKENS), min_size=1, max_size=25).map(" ".join))
def test_parse_and_evaluate_token_soup(source):
    try:
        evaluate(parse(source), ENV)
    except SweepRunError:
        pass


@fuzz
@given(st.one_of(st.text(max_size=60), st.text(alphabet="{}ab_1 é\n", max_size=60)))
def test_template_scanning_any_text(source):
    try:
        extract_placeholders(source)
        render(source, {"a": 1, "b": 2.5}, "007")
    except SweepRunError:
        pass


# ---------------------------------------------------------------------------
# reference renderer: one character at a time, scanning lazily as it renders

_REFERENCE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _reference_offset(source, i):
    return len(source[:i].encode("utf-8", "surrogatepass"))


def _reference_scan(source):
    i = 0
    n = len(source)
    literal = []
    while i < n:
        c = source[i]
        if c == "{":
            if source.startswith("{{", i):
                literal.append("{")
                i += 2
                continue
            j = source.find("}", i + 1)
            if j == -1:
                raise TemplateSyntaxError("unclosed placeholder", _reference_offset(source, i))
            name = source[i + 1 : j]
            if not _REFERENCE_NAME_RE.match(name):
                raise TemplateSyntaxError(
                    f"invalid placeholder name {name!r}", _reference_offset(source, i)
                )
            yield "".join(literal), name
            literal = []
            i = j + 1
        elif c == "}":
            if source.startswith("}}", i):
                literal.append("}")
                i += 2
                continue
            raise TemplateSyntaxError("unescaped '}'", _reference_offset(source, i))
        else:
            literal.append(c)
            i += 1
    yield "".join(literal), None


def _reference_placeholders(source):
    seen = {}
    for _literal, name in _reference_scan(source):
        if name is not None and name not in seen:
            seen[name] = None
    return list(seen)


def _reference_render(source, params, sim_id):
    values = {name: format_value(value) for name, value in params.items()}
    values["sim_id"] = sim_id
    parts = []
    for literal, name in _reference_scan(source):
        parts.append(literal)
        if name is None:
            continue
        try:
            parts.append(values[name])
        except KeyError:
            raise UnfilledPlaceholderError(name) from None
    return "".join(parts)


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except SweepRunError as exc:
        return type(exc), getattr(exc, "offset", None), str(exc)


TEMPLATE_PIECES = [
    "{a}", "{b}", "{sim_id}", "{c}", "{{", "}}", "{", "}", "{ a}", "{1x}", "{a{b}",
    "x", " ", "\n", "é", "\ud800", "= ",
]
templates_text = st.one_of(
    st.text(max_size=80),
    st.text(alphabet="{}ab_c1 é\n", max_size=80),
    st.lists(st.sampled_from(TEMPLATE_PIECES), max_size=30).map("".join),
)
PARAMS = {"a": 1, "b": 2.5, "unused": "text"}


@fuzz
@given(templates_text)
def test_render_agrees_with_reference(source):
    assert _outcome(render, source, PARAMS, "042") == _outcome(_reference_render, source, PARAMS, "042")


@fuzz
@given(templates_text)
def test_extract_placeholders_agrees_with_reference(source):
    assert _outcome(extract_placeholders, source) == _outcome(_reference_placeholders, source)


VALUES = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
GRIDS = st.dictionaries(
    st.sampled_from(["a", "b", "c", "x_1"]),
    st.lists(VALUES, min_size=1, max_size=4, unique_by=lambda v: (type(v), v)),
    min_size=1,
    max_size=3,
)


@fuzz
@given(GRIDS)
def test_format_grid_agrees_with_formatting_each_set(parameters):
    sweep = CartesianSweep(parameters)
    expected = [
        {name: format_value(value) for name, value in params.items()} for params in sweep.iter_sets()
    ]
    assert list(format_grid(sweep.parameters)) == expected
    grid = build_mapping(sweep)
    for mapping in (grid, AssociationMapping("s", dict(zip(grid.sim_ids, list(sweep.iter_sets()))))):
        assert list(cells(mapping)) == [
            (sim_id, {name: format_value(value) for name, value in params.items()})
            for sim_id, params in mapping.items()
        ]


# ---------------------------------------------------------------------------
# reference evaluator: walks the syntax tree for every evaluation


def _reference_is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _reference_kind_name(value):
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    if isinstance(value, str):
        return "text"
    return type(value).__name__


def _reference_evaluate(expr, env):
    value = _reference_eval(expr, env)
    if not isinstance(value, bool):
        raise FilterTypeError(
            f"filter must evaluate to a boolean, got {_reference_kind_name(value)}"
        )
    return value


def _reference_eval(node, env):
    _is_number, _kind_name = _reference_is_number, _reference_kind_name
    if isinstance(node, (NumberLit, TextLit)):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnboundVariableError(node.name) from None
    if isinstance(node, Unary):
        operand = _reference_eval(node.operand, env)
        if node.op == "not":
            if not isinstance(operand, bool):
                raise FilterTypeError(f"'not' requires a boolean, got {_kind_name(operand)}")
            return not operand
        if not _is_number(operand):
            raise FilterTypeError(f"unary '-' requires a number, got {_kind_name(operand)}")
        return -operand

    op = node.op
    if op in ("and", "or"):
        left = _reference_eval(node.left, env)
        if not isinstance(left, bool):
            raise FilterTypeError(f"'{op}' requires boolean operands, got {_kind_name(left)}")
        if op == "and" and not left:
            return False
        if op == "or" and left:
            return True
        right = _reference_eval(node.right, env)
        if not isinstance(right, bool):
            raise FilterTypeError(f"'{op}' requires boolean operands, got {_kind_name(right)}")
        return right

    left = _reference_eval(node.left, env)
    right = _reference_eval(node.right, env)

    if op in ("lt", "le", "gt", "ge"):
        if not (
            (_is_number(left) and _is_number(right))
            or (isinstance(left, str) and isinstance(right, str))
        ):
            raise FilterTypeError(f"cannot order {_kind_name(left)} and {_kind_name(right)}")
        if op == "lt":
            return left < right
        if op == "le":
            return left <= right
        if op == "gt":
            return left > right
        return left >= right

    if op in ("eq", "ne"):
        if not (
            (_is_number(left) and _is_number(right))
            or (isinstance(left, str) and isinstance(right, str))
        ):
            raise FilterTypeError(
                f"cannot compare {_kind_name(left)} and {_kind_name(right)} for equality"
            )
        return left == right if op == "eq" else left != right

    if not (_is_number(left) and _is_number(right)):
        raise FilterTypeError(f"cannot apply arithmetic to {_kind_name(left)} and {_kind_name(right)}")
    try:
        if op == "add":
            return left + right
        if op == "sub":
            return left - right
        if op == "mul":
            return left * right
        if op == "div":
            if right == 0:
                raise FilterArithmeticError("division by zero")
            return left / right
    except OverflowError as exc:
        raise FilterArithmeticError(str(exc)) from None
    raise AssertionError(f"unknown operator {op!r}")


class _Int(int):
    pass


class _Real(float):
    pass


NUMBERS = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([0, 0.0, -0.0, 10**400, _Int(2), _Real(0.5)]),
    st.floats(allow_nan=False),
)
TEXTS = st.text(alphabet="ab", max_size=2)
VALUES = st.one_of(NUMBERS, TEXTS, st.booleans())
# numeric variables, mostly bound to numbers; "z" is often missing from the env
ENVS = st.one_of(
    st.fixed_dictionaries({"x": NUMBERS, "y": NUMBERS, "s": TEXTS}, optional={"z": NUMBERS}),
    st.dictionaries(st.sampled_from(["x", "y", "z", "s"]), VALUES),
)
NUMBER_LEAVES = st.one_of(
    st.builds(NumberLit, st.one_of(st.integers(-3, 3), st.sampled_from([0.0, 1.5, 1e308, 10**400]))),
    st.builds(Var, st.sampled_from(["x", "y", "z"])),
)
TEXT_LEAVES = st.one_of(st.builds(TextLit, st.sampled_from(["", "a", "b"])), st.just(Var("s")))
LEAVES = st.one_of(NUMBER_LEAVES, TEXT_LEAVES)


def _numeric(depth):
    if depth == 0:
        return NUMBER_LEAVES
    below = _numeric(depth - 1)
    return st.one_of(
        NUMBER_LEAVES,
        st.builds(Unary, st.just("neg"), below),
        st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]), below, below),
    )


def _trees(depth):
    """Mostly well-typed filters, with a leaf of any kind in any operand."""
    comparison = st.sampled_from(["lt", "le", "gt", "ge", "eq", "ne"])
    comparisons = st.one_of(
        st.builds(Binary, comparison, _numeric(depth - 1), _numeric(depth - 1)),
        st.builds(Binary, comparison, TEXT_LEAVES, TEXT_LEAVES),
        st.builds(Binary, comparison, LEAVES, LEAVES),
    )
    if depth == 1:
        return comparisons
    below = st.one_of(_trees(depth - 1), LEAVES)
    return st.one_of(
        comparisons,
        st.builds(Unary, st.sampled_from(["not", "neg"]), below),
        st.builds(Binary, st.sampled_from(["and", "or"]), below, below),
        st.builds(Binary, st.sampled_from(["add", "mul", "lt", "eq"]), below, below),
    )


def _evaluation(fn, expr, env):
    try:
        return "returned", fn(expr, env)
    except Exception as exc:  # any difference in type or message is a failure
        return type(exc), str(exc)


@settings(deadline=None, max_examples=500)
@given(_trees(6), ENVS)
def test_evaluate_agrees_with_reference(expr, env):
    assert _evaluation(evaluate, expr, env) == _evaluation(_reference_evaluate, expr, env)


# ---------------------------------------------------------------------------
# a pruned filtered sweep against testing every grid point with the reference

AXIS_INTS = st.one_of(st.integers(-3, 3), st.sampled_from([10**400, _Int(2)]))
AXIS_REALS = st.one_of(st.floats(-4, 4), st.sampled_from([1.5, 1e308, _Real(0.5)]))


def _axis(values):
    return st.lists(values, min_size=1, max_size=3, unique_by=lambda v: (type(v), v))


# mostly the kind the trees use each name for, so that many filters pass the static check
MIXED_AXES = _axis(st.one_of(AXIS_INTS, AXIS_REALS, TEXTS))
NUMBER_AXES = st.one_of(_axis(AXIS_INTS), _axis(AXIS_REALS), MIXED_AXES)
TEXT_AXES = st.one_of(_axis(TEXTS), MIXED_AXES)


def _reference_sets(parameters, expr):
    grid = CartesianSweep(parameters)
    kept = [params for params in grid.iter_sets() if _reference_evaluate(expr, params)]
    if not kept:
        raise EmptySweepError(f"filter rejected all {grid.length()} parameter sets; nothing to run")
    return kept


def _reference_calls(parameters, expr):
    """(filter, set) per evaluation when every grid point is tested in
    row-major order, up to the first point the filter raises on."""
    calls = []
    for params in CartesianSweep(parameters).iter_sets():
        calls.append((expr, repr(params)))
        try:
            _reference_evaluate(expr, params)
        except Exception:
            break
    return calls


@settings(deadline=None, max_examples=400)
@given(_trees(5), st.data())
def test_pruned_sweep_agrees_with_testing_every_point(expr, data):
    used = sorted(free_variables(expr))
    assume(len(used) <= 3)
    unused = [name for name in ("x", "y", "z", "s") if name not in used]
    extra = data.draw(st.lists(st.sampled_from(unused), unique=True, max_size=3 - len(used)))
    names = data.draw(st.permutations(used + extra))
    assume(names)
    parameters = {name: data.draw(TEXT_AXES if name == "s" else NUMBER_AXES) for name in names}
    expected = _evaluation(_reference_sets, parameters, expr)
    sweep = FilteredCartesianSweep(parameters, expr)
    refused = _split(sweep.filter, sweep.parameters) is None
    calls = []
    real_evaluate = filters.evaluate
    filters.evaluate = lambda expr, env: calls.append((expr, repr(env))) or real_evaluate(expr, env)
    try:
        assert _evaluation(lambda sweep, _: list(sweep.iter_sets()), sweep, None) == expected
    finally:
        filters.evaluate = real_evaluate
    if refused:  # tested whole at every grid point
        assert calls == _reference_calls(parameters, sweep.filter)
    if expected[0] is not EmptySweepError and expected[0] != "returned":
        assert refused  # a filter that raises on the grid is never split


# ---------------------------------------------------------------------------
# reference lexer and parser: a character loop, and one recursive-descent
# method per precedence level

_NUMBER_RE = re.compile(r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TWO_CHAR_OPS = ("<=", ">=", "==", "!=")
_ONE_CHAR_OPS = "<>+-*/()"

_CMP_OPS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}
_ADD_OPS = {"+": "add", "-": "sub"}
_MUL_OPS = {"*": "mul", "/": "div"}


def _reference_tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "'":
            j = source.find("'", i + 1)
            if j == -1:
                raise _syntax_error(source, i, "unterminated text literal")
            tokens.append(_Token("text", source[i + 1 : j], i))
            i = j + 1
            continue
        m = _NUMBER_RE.match(source, i)
        if m:
            tokens.append(_Token("number", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(source, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(_Token("op", two, i))
            i += 2
            continue
        if c in _ONE_CHAR_OPS:
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise _syntax_error(source, i, f"unexpected character {c!r}")
    tokens.append(_Token("end", "", n))
    return tokens


class _ReferenceParser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _reference_tokenize(source)
        self.pos = 0
        self.parens = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def error(self, token: _Token, expected: str) -> FilterSyntaxError:
        found = "end of input" if token.kind == "end" else repr(token.text)
        return _syntax_error(self.source, token.pos, f"expected {expected}, found {found}")

    def too_deep(self, token: _Token) -> FilterSyntaxError:
        return _syntax_error(self.source, token.pos, f"filter nests deeper than {MAX_DEPTH} levels")

    def node(self, token: _Token, expr: FilterExpr) -> FilterExpr:
        """`expr`, built at operator `token`, unless it is deeper than MAX_DEPTH."""
        if _height(expr) > MAX_DEPTH:
            raise self.too_deep(token)
        return expr

    def parse(self) -> FilterExpr:
        expr = self.parse_or()
        token = self.peek()
        if token.kind != "end":
            raise self.error(token, "end of input")
        return expr

    def parse_or(self) -> FilterExpr:
        expr = self.parse_and()
        while self.peek().kind == "ident" and self.peek().text == "or":
            token = self.advance()
            expr = self.node(token, Binary("or", expr, self.parse_and()))
        return expr

    def parse_and(self) -> FilterExpr:
        expr = self.parse_not()
        while self.peek().kind == "ident" and self.peek().text == "and":
            token = self.advance()
            expr = self.node(token, Binary("and", expr, self.parse_not()))
        return expr

    def parse_not(self) -> FilterExpr:
        nots = []
        while self.peek().kind == "ident" and self.peek().text == "not":
            nots.append(self.advance())
        expr = self.parse_comparison()
        for token in reversed(nots):
            expr = self.node(token, Unary("not", expr))
        return expr

    def parse_comparison(self) -> FilterExpr:
        left = self.parse_additive()
        token = self.peek()
        if token.kind == "op" and token.text in _CMP_OPS:
            self.advance()
            right = self.parse_additive()
            again = self.peek()
            if again.kind == "op" and again.text in _CMP_OPS:
                raise _syntax_error(
                    self.source, again.pos, "chained comparisons are not supported"
                )
            return self.node(token, Binary(_CMP_OPS[token.text], left, right))
        return left

    def parse_additive(self) -> FilterExpr:
        expr = self.parse_multiplicative()
        while self.peek().kind == "op" and self.peek().text in _ADD_OPS:
            token = self.advance()
            expr = self.node(token, Binary(_ADD_OPS[token.text], expr, self.parse_multiplicative()))
        return expr

    def parse_multiplicative(self) -> FilterExpr:
        expr = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in _MUL_OPS:
            token = self.advance()
            expr = self.node(token, Binary(_MUL_OPS[token.text], expr, self.parse_unary()))
        return expr

    def parse_unary(self) -> FilterExpr:
        minuses = []
        while self.peek().kind == "op" and self.peek().text == "-":
            minuses.append(self.advance())
        expr = self.parse_atom()
        for token in reversed(minuses):
            expr = self.node(token, Unary("neg", expr))
        return expr

    def parse_atom(self) -> FilterExpr:
        token = self.advance()
        if token.kind == "number":
            text = token.text
            if "." in text or "e" in text or "E" in text:
                return NumberLit(float(text))
            try:
                return NumberLit(int(text))
            except ValueError:  # longer than Python's integer-to-text limit
                raise _syntax_error(self.source, token.pos, "integer literal is too long") from None
        if token.kind == "text":
            return TextLit(token.text)
        if token.kind == "ident":
            if token.text in _KEYWORDS:
                raise self.error(token, "a value")
            return Var(token.text)
        if token.kind == "op" and token.text == "(":
            self.parens += 1
            if self.parens > MAX_DEPTH:
                raise self.too_deep(token)
            expr = self.parse_or()
            self.parens -= 1
            closing = self.advance()
            if not (closing.kind == "op" and closing.text == ")"):
                raise self.error(closing, "')'")
            return expr
        raise self.error(token, "a value")


def _reference_parse(source: str) -> FilterExpr:
    if not source.strip():
        raise FilterSyntaxError("expression is empty", 0)
    return _ReferenceParser(source).parse()


# filter tokens and keywords, glued or apart, with characters the lexer rejects
SOURCE_PIECES = [
    *FILTER_TOKENS, "'", "'a b'", "''", "!", "@", "=", "e", "E", "1.", ".5", "e+3", ".", "\x0b", "\x0c", "é",
    "x1", "_", "andor", " ", "\t", "\r", "\n",
]


def _parse_outcome(fn, source):
    try:
        return "returned", repr(fn(source))
    except FilterSyntaxError as exc:
        return exc.offset, str(exc)


@settings(deadline=None, max_examples=1_000)
@given(st.lists(st.sampled_from(SOURCE_PIECES), max_size=30).map("".join))
def test_lexer_and_parser_agree_with_reference(source):
    assert _parse_outcome(_tokenize, source) == _parse_outcome(_reference_tokenize, source)
    assert _parse_outcome(parse, source) == _parse_outcome(_reference_parse, source)


@pytest.mark.parametrize("depth", [63, 64, 65])
@pytest.mark.parametrize(
    "shape",
    [
        lambda d: "(" * d + "x" + ")" * d,
        lambda d: "not " * d + "x",
        lambda d: "-" * d + "x",
        lambda d: "not " * d + "-" * d + "x",
        lambda d: "x" + " + x" * d,
        lambda d: "x" + " and x" * d,
        lambda d: "x" + " or x" * d,
        lambda d: "(" * d + "x" + ") * x" * d,
        lambda d: "x" + " + x" * (d - 1) + " < x < x",
        lambda d: "(x < " * d + "x" + ")" * d,
    ],
    ids=["parens", "not", "minus", "not-minus", "sum", "and", "or", "product", "chain", "nested-comparisons"],
)
def test_deep_filters_agree_with_reference(shape, depth):
    source = shape(depth)
    assert _parse_outcome(parse, source) == _parse_outcome(_reference_parse, source)
