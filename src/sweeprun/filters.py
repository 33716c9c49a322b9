"""Predicate language for filtered Cartesian sweeps.

A filter is a boolean expression over the swept parameters, e.g.
``x > y and not (mode == 'fast')``. This module provides the lexer (one
regular expression), a precedence-climbing parser over one operator table
producing an immutable AST, an evaluator that compiles each AST once into a
tree of closures, and `prune`, the one walk of a filtered grid. One table,
`_OPERATORS`, states which operand types each operator takes: the evaluator
checks operands against it, and `prune`'s static proof reads it.

Precedence, lowest to highest: ``or`` < ``and`` < ``not`` < comparisons
(``< <= > >= == !=``, non-associative) < ``+ -`` < ``* /`` < unary minus.
Atoms are number literals, single-quoted text literals (no escapes),
identifiers, and parenthesized expressions.

Semantics: integer arithmetic stays integer for ``+ - *`` and promotes to
real when mixed; ``/`` is real division. Comparisons order numbers
numerically and text by byte order; ``==``/``!=`` work between two numbers
(``2 == 2.0`` is true) or two texts, never across. ``and``/``or``
short-circuit left to right and require boolean operands.

Depth: the syntax tree may be at most MAX_DEPTH levels deep (a leaf is one
level, each operator above it one more), and parentheses may nest at most
MAX_DEPTH levels; deeper filters are syntax errors, so parsing and
evaluation stay within Python's recursion limit.
"""

from __future__ import annotations

import operator
import re
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Union

from .errors import (
    FilterArithmeticError,
    FilterSyntaxError,
    FilterTypeError,
    UnboundVariableError,
    _byte_offset,
)

__all__ = [
    "NumberLit",
    "TextLit",
    "Var",
    "Unary",
    "Binary",
    "FilterExpr",
    "parse",
    "free_variables",
    "evaluate",
    "prune",
]


@dataclass(frozen=True)
class NumberLit:
    value: int | float


@dataclass(frozen=True)
class TextLit:
    value: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "not"
    operand: "FilterExpr"


@dataclass(frozen=True)
class Binary:
    # "add" "sub" "mul" "div" | "lt" "le" "gt" "ge" "eq" "ne" | "and" "or"
    op: str
    left: "FilterExpr"
    right: "FilterExpr"


FilterExpr = Union[NumberLit, TextLit, Var, Unary, Binary]

MAX_DEPTH = 64

_KEYWORDS = frozenset({"and", "or", "not"})
# one token after any blanks, tried in this order; a lone quote or any other
# character ("bad") is an error at that character, and "end" ends the input
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?P<text>'[^']*')"
    r"|(?P<number>(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|==|!=|[<>+\-*/()])"
    r"|(?P<bad>.)|(?P<end>\Z))",
    re.DOTALL,
)

# binary operators by token text: (precedence, op), higher binding tighter,
# all left-associative except the comparisons, which do not chain. A run of
# ``not`` binds between ``and`` and the comparisons, unary minus above ``*``.
_BINARY = {
    "or": (1, "or"), "and": (2, "and"),
    "<": (4, "lt"), "<=": (4, "le"), ">": (4, "gt"), ">=": (4, "ge"), "==": (4, "eq"), "!=": (4, "ne"),
    "+": (5, "add"), "-": (5, "sub"), "*": (6, "mul"), "/": (6, "div"),
}
_NOT = 3
_COMPARISON = 4


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "text" | "ident" | "op" | "end"
    text: str
    pos: int  # character index into the source


def _syntax_error(source: str, pos: int, message: str) -> FilterSyntaxError:
    return FilterSyntaxError(message, _byte_offset(source, pos))


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while True:
        m = _TOKEN_RE.match(source, i)
        kind = m.lastgroup
        if kind == "end":
            tokens.append(_Token("end", "", len(source)))
            return tokens
        i = m.end()
        text = m.group(kind)
        if kind == "bad":
            message = "unterminated text literal" if text == "'" else f"unexpected character {text!r}"
            raise _syntax_error(source, m.start(kind), message)
        tokens.append(_Token(kind, text[1:-1] if kind == "text" else text, m.start(kind)))


def _binding(token: _Token) -> tuple[int, str]:
    """(precedence, op) of `token` as a binary operator; precedence 0 if it is none."""
    return (0, "") if token.kind == "text" else _BINARY.get(token.text, (0, ""))


def _height(expr: FilterExpr) -> int:
    if isinstance(expr, Unary):
        return 1 + _height(expr.operand)
    if isinstance(expr, Binary):
        return 1 + max(_height(expr.left), _height(expr.right))
    return 1


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
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
        expr = self.parse_expr(1)
        token = self.peek()
        if token.kind != "end":
            raise self.error(token, "end of input")
        return expr

    def parse_expr(self, floor: int) -> FilterExpr:
        """Operands joined by the binary operators of precedence `floor` or higher."""
        expr = self.parse_prefix(floor)
        while True:
            token = self.peek()
            precedence, op = _binding(token)
            if precedence < floor:
                return expr
            self.advance()
            right = self.parse_expr(precedence + 1)
            again = self.peek()
            if precedence == _COMPARISON and _binding(again)[0] == _COMPARISON:
                raise _syntax_error(self.source, again.pos, "chained comparisons are not supported")
            expr = self.node(token, Binary(op, expr, right))

    def parse_prefix(self, floor: int) -> FilterExpr:
        """A run of ``not`` over a comparison where an ``and`` operand may start
        (`floor` up to _NOT), else a run of unary minus over an atom."""
        negation = floor <= _NOT and self.peek().kind == "ident" and self.peek().text == "not"
        sign, op = ("not", "not") if negation else ("-", "neg")
        signs = []
        while self.peek().kind != "text" and self.peek().text == sign:
            signs.append(self.advance())
        expr = self.parse_expr(_COMPARISON) if negation else self.parse_atom()
        for token in reversed(signs):
            expr = self.node(token, Unary(op, expr))
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
            expr = self.parse_expr(1)
            self.parens -= 1
            closing = self.advance()
            if not (closing.kind == "op" and closing.text == ")"):
                raise self.error(closing, "')'")
            return expr
        raise self.error(token, "a value")


def parse(source: str) -> FilterExpr:
    """Parse filter source text into an AST.

    Raises FilterSyntaxError (with a byte offset) on malformed input.
    """
    if not source.strip():
        raise FilterSyntaxError("expression is empty", 0)
    return _Parser(source).parse()


def free_variables(expr: FilterExpr) -> set[str]:
    """Names of all variables appearing in the expression."""
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, Unary):
        return free_variables(expr.operand)
    if isinstance(expr, Binary):
        return free_variables(expr.left) | free_variables(expr.right)
    return set()


# the operand types the operator table names, and their names in errors; a
# value of a subclass of one is checked as that type (bool, a subclass of
# int, comes first), and any other value as its own type
_KIND_NAMES = {bool: "boolean", int: "integer", float: "real", str: "text"}


def _kind(value: object) -> type:
    return next((kind for kind in _KIND_NAMES if isinstance(value, kind)), type(value))


def _kind_name(value: object) -> str:
    return _KIND_NAMES.get(_kind(value)) or type(value).__name__


def evaluate(expr: FilterExpr, env: Mapping[str, int | float | str]) -> bool:
    """Evaluate a filter against one parameter set.

    The expression's root must yield a boolean; a numeric result
    (e.g. the expression ``x + 1``) raises FilterTypeError. Each filter is
    compiled once, on its first evaluation.
    """
    entry = _programs.get(id(expr))
    if entry is None:
        entry = _cache_program(expr)
    value = entry[1](env)
    if value is True or value is False:
        return value
    raise FilterTypeError(f"filter must evaluate to a boolean, got {_kind_name(value)}")


# filters kept compiled, keyed by the identity of their AST: hashing a frozen
# dataclass walks its whole tree. Each entry also holds the AST, so its id
# cannot be reused while it is cached.
_COMPILED_FILTERS = 64
_programs: dict[int, tuple[FilterExpr, Callable[[Mapping], object]]] = {}
_programs_lock = threading.Lock()


def _cache_program(expr: FilterExpr) -> tuple[FilterExpr, Callable[[Mapping], object]]:
    entry = (expr, _compile(expr))
    with _programs_lock:
        if len(_programs) >= _COMPILED_FILTERS:
            del _programs[next(iter(_programs))]  # the oldest
        _programs[id(expr)] = entry
    return entry


def _divide(a, b):
    if b == 0:
        raise FilterArithmeticError("division by zero")
    return a / b


_NUMBERS = {int: {int, float}, float: {int, float}}
_ORDERED = {**_NUMBERS, str: {str}}  # an integer compares with a real exactly
_ARITHMETIC_ERROR = "cannot apply arithmetic to {} and {}"

# op -> (the operand type pairs it takes, as a map from each left type to
# the right types it takes with it, a unary operator's right being None; the
# error for any others; its function). Evaluation checks each operand against
# its row, and `_kinds` proves a node from the same row. ``and``/``or`` have
# no function: they short-circuit.
_OPERATORS = {
    "neg": ({int: {None}, float: {None}}, "unary '-' requires a number, got {}", operator.neg),
    "not": ({bool: {None}}, "'not' requires a boolean, got {}", operator.not_),
    **{op: ({bool: {bool}}, f"'{op}' requires boolean operands, got {{}}", None) for op in ("and", "or")},
    **{op: (_ORDERED, "cannot order {} and {}", getattr(operator, op)) for op in ("lt", "le", "gt", "ge")},
    **{op: (_ORDERED, "cannot compare {} and {} for equality", getattr(operator, op)) for op in ("eq", "ne")},
    **{op: (_NUMBERS, _ARITHMETIC_ERROR, getattr(operator, op)) for op in ("add", "sub", "mul")},
    "div": (_NUMBERS, _ARITHMETIC_ERROR, _divide),
}


def _compile(node: FilterExpr) -> Callable[[Mapping], object]:
    """A closure computing `node`'s value from an env; one closure per node."""
    if isinstance(node, (NumberLit, TextLit)):
        constant = node.value
        return lambda env: constant
    if isinstance(node, Var):
        name = node.name

        def variable(env):
            try:
                return env[name]
            except KeyError:
                raise UnboundVariableError(name) from None

        return variable
    rights, message, apply = _OPERATORS[node.op]  # a unary operator takes the left types
    if isinstance(node, Unary):
        operand = _compile(node.operand)

        def unary(env):
            value = operand(env)
            if type(value) in rights or _kind(value) in rights:
                return apply(value)
            raise FilterTypeError(message.format(_kind_name(value)))

        return unary

    left = _compile(node.left)
    right = _compile(node.right)
    if apply is None:
        decisive = node.op == "or"  # the left value that decides the result alone

        def logical(env):
            a = left(env)
            if not (type(a) in rights or _kind(a) in rights):
                raise FilterTypeError(message.format(_kind_name(a)))
            if a is decisive:
                return a
            b = right(env)
            if type(b) in rights.get(type(a), ()) or _kind(b) in rights[_kind(a)]:
                return b
            raise FilterTypeError(message.format(_kind_name(b)))

        return logical

    def binary(env):
        a = left(env)
        b = right(env)
        if type(b) in rights.get(type(a), ()) or _kind(b) in rights.get(_kind(a), ()):
            try:
                return apply(a, b)
            except OverflowError as exc:  # an integer too large to mix with reals
                raise FilterArithmeticError(str(exc)) from None
        raise FilterTypeError(message.format(_kind_name(a), _kind_name(b)))

    return binary


# ---------------------------------------------------------------------------
# pruning: a filter that cannot raise on a grid is tested conjunct by conjunct

_INT_LIMIT = 2**1023  # an integer below this becomes a real without overflow


class _Unproven(Exception):
    """The static check cannot prove that a node never raises on the grid."""


def _kinds(node: FilterExpr, axes: Mapping) -> tuple[frozenset, int]:
    """The exact types `node` takes over the grid `axes` (name -> values) and
    a bound on the magnitude of its integer values. Raises _Unproven where a
    pair of operand types is not in the operator's `_OPERATORS` row (a
    subclass is in none), at a ``/``, and where an integer mixed with a real
    could reach _INT_LIMIT."""
    if isinstance(node, (NumberLit, TextLit, Var)):
        values = axes.get(node.name, ()) if isinstance(node, Var) else (node.value,)
        if not values:  # an unbound name
            raise _Unproven
        return frozenset(map(type, values)), max((abs(v) for v in values if type(v) is int), default=0)
    unary = isinstance(node, Unary)
    left, left_bound = _kinds(node.operand if unary else node.left, axes)
    right, right_bound = ((None,), 0) if unary else _kinds(node.right, axes)
    rights = _OPERATORS[node.op][0]
    if node.op == "div" or not all(b in rights.get(a, ()) for a in left for b in right):
        raise _Unproven
    if unary:  # '-' keeps its operand's types, 'not' takes booleans only
        return left, left_bound
    if node.op not in ("add", "sub", "mul"):
        return frozenset({bool}), 0
    if (int in left and float in right and left_bound >= _INT_LIMIT) or (
        float in left and int in right and right_bound >= _INT_LIMIT
    ):
        raise _Unproven
    bound = left_bound * right_bound if node.op == "mul" else left_bound + right_bound
    kinds = {int} if int in left and int in right else set()
    return frozenset(kinds | ((left | right) & {float})), min(bound, _INT_LIMIT)


def _conjuncts(expr: FilterExpr) -> list[FilterExpr]:
    """The operands of `expr`'s top-level ``and`` chain, left to right."""
    if isinstance(expr, Binary) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _split(expr: FilterExpr, parameters: Mapping[str, tuple]) -> list[FilterExpr] | None:
    """The operands of `expr`'s top-level ``and`` chain, when a static check
    proves that `expr` is boolean and no part of it raises on any point of the
    grid `parameters`; else None."""
    try:
        if _kinds(expr, parameters)[0] == {bool}:
            return _conjuncts(expr)
    except (_Unproven, RecursionError):
        pass
    return None


def prune(expr: FilterExpr, parameters: Mapping[str, tuple]) -> Iterator[dict]:
    """The sets of the grid `parameters` (name -> values, declaration order)
    that `expr` keeps, one at a time in row-major order; a grid of no names
    has one set, the empty one.

    A filter the static check proves (`_split`) is true exactly where each
    conjunct of its ``and`` chain is. A conjunct over one parameter is tested
    once per value of that axis and shrinks it before enumeration; any other
    is tested once per combination of the parameters up to its last one, and
    where it is false the whole sub-grid below is skipped. A filter the check
    refuses is tested whole at every grid point, in row-major order, so it
    raises where the first point it cannot evaluate is reached. Every test
    calls `evaluate`.
    """
    conjuncts = _split(expr, parameters)
    names = list(parameters)
    axes = {name: list(values) for name, values in parameters.items()}
    tests: list[list[FilterExpr]] = [[] for _ in names]  # by the position of their last parameter
    for conjunct in conjuncts or ():
        used = free_variables(conjunct)
        if len(used) == 1:
            [name] = used
            axes[name] = [value for value in axes[name] if evaluate(conjunct, {name: value})]
        elif not used:
            if not evaluate(conjunct, {}):
                return iter(())
        else:
            tests[max(map(names.index, used))].append(conjunct)
    if not all(axes.values()):
        return iter(())
    if not names:  # one point, where a refused filter is tested whole
        return (env for env in [{}] if conjuncts is not None or evaluate(expr, env))
    if conjuncts is None:  # refused: the whole filter at every grid point
        tests[-1].append(expr)
    env: dict = {}
    last = len(names) - 1

    def sets(k: int) -> Iterator[dict]:
        name, here = names[k], tests[k]
        for value in axes[name]:
            env[name] = value  # the names enter env in declaration order
            for conjunct in here:
                if not evaluate(conjunct, env):
                    break
            else:
                if k == last:
                    yield dict(env)
                else:
                    yield from sets(k + 1)

    return sets(0)
