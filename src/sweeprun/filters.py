"""Predicate language for filtered Cartesian sweeps.

A filter is a boolean expression over the swept parameters, e.g.
``x > y and not (mode == 'fast')``. This module provides the lexer, a
recursive-descent parser producing an immutable AST, and an evaluator
that compiles each AST once into a tree of closures.

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
from typing import Callable, Mapping, Union

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
_NUMBER_RE = re.compile(r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TWO_CHAR_OPS = ("<=", ">=", "==", "!=")
_ONE_CHAR_OPS = "<>+-*/()"

_CMP_OPS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}
_ADD_OPS = {"+": "add", "-": "sub"}
_MUL_OPS = {"*": "mul", "/": "div"}


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


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _kind_name(value: object) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    if isinstance(value, str):
        return "text"
    return type(value).__name__


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


# exact types that pass _is_number; subclasses take the full check
_PLAIN_NUMBERS = frozenset({int, float})


def _numbers(a: object, b: object) -> bool:
    return (type(a) in _PLAIN_NUMBERS and type(b) in _PLAIN_NUMBERS) or (
        _is_number(a) and _is_number(b)
    )


def _boolean(op: str, value: object) -> bool:
    if value is True or value is False:
        return value
    raise FilterTypeError(f"'{op}' requires boolean operands, got {_kind_name(value)}")


def _divide(a, b):
    if b == 0:
        raise FilterArithmeticError("division by zero")
    return a / b


_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": _divide}
_COMPARISONS = {
    "lt": operator.lt, "le": operator.le, "gt": operator.gt,
    "ge": operator.ge, "eq": operator.eq, "ne": operator.ne,
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
    if isinstance(node, Unary):
        operand = _compile(node.operand)
        if node.op == "not":

            def negation(env):
                value = operand(env)
                if value is True or value is False:
                    return not value
                raise FilterTypeError(f"'not' requires a boolean, got {_kind_name(value)}")

            return negation

        def minus(env):
            value = operand(env)
            if type(value) in _PLAIN_NUMBERS or _is_number(value):
                return -value
            raise FilterTypeError(f"unary '-' requires a number, got {_kind_name(value)}")

        return minus

    op = node.op
    left = _compile(node.left)
    right = _compile(node.right)
    if op in ("and", "or"):
        decisive = op == "or"  # the left value that decides the result alone

        def logical(env):
            value = _boolean(op, left(env))
            return value if value is decisive else _boolean(op, right(env))

        return logical

    if op in _COMPARISONS:
        compare = _COMPARISONS[op]
        message = "cannot compare {} and {} for equality" if op in ("eq", "ne") else "cannot order {} and {}"

        def comparison(env):
            a = left(env)
            b = right(env)
            if _numbers(a, b) or (isinstance(a, str) and isinstance(b, str)):
                return compare(a, b)
            raise FilterTypeError(message.format(_kind_name(a), _kind_name(b)))

        return comparison

    if op not in _ARITHMETIC:
        raise AssertionError(f"unknown operator {op!r}")
    apply = _ARITHMETIC[op]

    def arithmetic(env):
        a = left(env)
        b = right(env)
        if not _numbers(a, b):
            raise FilterTypeError(f"cannot apply arithmetic to {_kind_name(a)} and {_kind_name(b)}")
        try:
            return apply(a, b)
        except OverflowError as exc:  # an integer too large to mix with reals
            raise FilterArithmeticError(str(exc)) from None

    return arithmetic
