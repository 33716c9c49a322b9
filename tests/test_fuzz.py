"""Fuzzing: the filter language and the template scanner reject any input
with sweeprun's own errors, never with a Python exception; the compiled
template renderer agrees with a character-by-character reference, and the
compiled filter evaluator agrees with a tree-walking reference."""

from __future__ import annotations

import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sweeprun.errors import (
    EmptySweepError,
    FilterArithmeticError,
    FilterTypeError,
    SweepRunError,
    TemplateSyntaxError,
    UnboundVariableError,
    UnfilledPlaceholderError,
)
from sweeprun.filters import Binary, NumberLit, TextLit, Unary, Var, evaluate, free_variables, parse, prune
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
    for mapping in (grid, AssociationMapping("s", dict(zip(grid.sim_ids, sweep.generate())))):
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
    refused = prune(sweep.filter, sweep.parameters) is None
    per_point = []
    real_iter_sets = CartesianSweep.iter_sets
    CartesianSweep.iter_sets = lambda self: per_point.append(1) or real_iter_sets(self)
    try:
        assert _evaluation(lambda sweep, _: sweep.generate(), sweep, None) == expected
    finally:
        CartesianSweep.iter_sets = real_iter_sets
    assert bool(per_point) == refused
    if expected[0] is not EmptySweepError and expected[0] != "returned":
        assert refused  # a filter that raises on the grid is never pruned
